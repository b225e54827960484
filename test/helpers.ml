(* Shared test utilities: dense (array-based) reference implementations of
   the similarity-list operations, and qcheck generators.  The dense code
   follows the §2.5 definitions literally, one id at a time, and serves as
   the oracle for the interval algorithms. *)

open Simlist

let sim_list_testable =
  Alcotest.testable Sim_list.pp Sim_list.equal

let interval_testable = Alcotest.testable Interval.pp Interval.equal

(* naive substring test, for asserting on rendered output *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* --- dense references ---------------------------------------------- *)

let dense_conj = Array.map2 ( +. )

let dense_max = Array.map2 Float.max

(* [next g] at i reads g at i+1 unless i is the last id of its extent. *)
let dense_next ~extents g =
  let n = Array.length g in
  Array.init n (fun i ->
      let id = i + 1 in
      if Interval.hi (Extent.containing extents id) = id then 0.
      else g.(i + 1))

(* [g until h] at i: the best h value at any id j >= i (same extent)
   reachable through ids whose g fraction stays >= threshold. *)
let dense_until ?(threshold = 0.5) ~extents ~gmax g h =
  let n = Array.length g in
  let frac i = if gmax = 0. then 0. else g.(i) /. gmax in
  Array.init n (fun i ->
      let id = i + 1 in
      let ext_hi = Interval.hi (Extent.containing extents id) in
      let best = ref h.(i) in
      let j = ref i in
      while !j + 1 < n && !j + 1 <= ext_hi - 1 && frac !j >= threshold do
        incr j;
        best := Float.max !best h.(!j)
      done;
      !best)

let dense_eventually ~extents h =
  let n = Array.length h in
  Array.init n (fun i ->
      let id = i + 1 in
      let ext_hi = Interval.hi (Extent.containing extents id) in
      let best = ref 0. in
      for j = i to ext_hi - 1 do
        best := Float.max !best h.(j)
      done;
      !best)

(* --- generators ------------------------------------------------------ *)

(* A random dense similarity array: each id independently non-zero with
   probability [density]; values are multiples of 1/8 in (0, max] so that
   float comparisons are exact and coalescing triggers often. *)
let gen_dense ?(density = 0.4) ~n ~max () =
  let open QCheck.Gen in
  let cell =
    float_bound_inclusive 1. >>= fun toss ->
    if toss > density then return 0.
    else map (fun k -> float_of_int k *. max /. 8.) (int_range 1 8)
  in
  array_repeat n cell

let gen_extents ~n =
  let open QCheck.Gen in
  int_range 1 4 >>= fun parts ->
  if parts = 1 || parts >= n then return (Extent.single n)
  else
    let to_extents cuts =
      let cuts = List.sort_uniq compare cuts in
      let cuts = List.filter (fun c -> c > 0 && c < n) cuts in
      let rec lengths prev = function
        | [] -> [ n - prev ]
        | c :: tl -> (c - prev) :: lengths c tl
      in
      Extent.of_lengths (lengths 0 cuts)
    in
    map to_extents (list_repeat (parts - 1) (int_range 1 (n - 1)))

let pp_dense a =
  String.concat ";" (Array.to_list (Array.map string_of_float a))

(* arbitrary for (n, extents, dense array) *)
let arb_dense_with_extents ?(max = 8.) () =
  let gen =
    let open QCheck.Gen in
    int_range 1 60 >>= fun n ->
    gen_extents ~n >>= fun extents ->
    map (fun a -> (n, extents, a)) (gen_dense ~n ~max ())
  in
  let print (n, extents, a) =
    Format.asprintf "n=%d %a dense=[%s]" n Extent.pp extents (pp_dense a)
  in
  QCheck.make ~print gen

let arb_two_dense_with_extents ?(max_a = 8.) ?(max_b = 8.) () =
  let gen =
    let open QCheck.Gen in
    int_range 1 60 >>= fun n ->
    gen_extents ~n >>= fun extents ->
    gen_dense ~n ~max:max_a () >>= fun a ->
    map (fun b -> (n, extents, a, b)) (gen_dense ~n ~max:max_b ())
  in
  let print (n, extents, a, b) =
    Format.asprintf "n=%d %a a=[%s] b=[%s]" n Extent.pp extents (pp_dense a)
      (pp_dense b)
  in
  QCheck.make ~print gen

let check_dense_equal ~what expected actual_list =
  let n = Array.length expected in
  let got = Sim_list.to_dense ~n actual_list in
  Alcotest.(check (array (float 1e-9))) what expected got

let qtest ?(count = 300) name prop arb =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- random closed HTL formulas (stratified, with shrinking) --------- *)

module Ast = Htl.Ast

(* vocabulary matching Workload.Movies random stores, so formulas have a
   real chance of matching something *)
let obj_types = [ "man"; "woman"; "train"; "car"; "gun"; "horse"; "dog" ]
let rel_names = [ "holds"; "fires_at"; "near" ]
let moods = [ "calm"; "tense" ]

let gen_closed_atom =
  let open QCheck.Gen in
  let open Ast in
  frequency
    [
      ( 3,
        map
          (fun t ->
            Exists
              ( "u",
                And
                  ( Atom (Present "u"),
                    Atom
                      (Cmp
                         ( Eq,
                           Obj_attr ("type", "u"),
                           Const (Metadata.Value.Str t) )) ) ))
          (oneofl obj_types) );
      ( 2,
        map
          (fun r ->
            Exists ("u", Exists ("v", Atom (Rel (r, [ "u"; "v" ])))))
          (oneofl rel_names) );
      ( 2,
        map
          (fun m ->
            Atom (Cmp (Eq, Seg_attr "mood", Const (Metadata.Value.Str m))))
          (oneofl moods) );
      ( 2,
        map2
          (fun cmp k ->
            Exists
              ( "u",
                And
                  ( Atom (Present "u"),
                    Atom
                      (Cmp
                         ( cmp,
                           Obj_attr ("speed", "u"),
                           Const (Metadata.Value.Int (10 * k)) )) ) ))
          (oneofl [ Gt; Le ]) (int_range 1 9) );
      (1, return (Atom True));
    ]

let gen_open_atom var =
  let open QCheck.Gen in
  let open Ast in
  frequency
    [
      ( 2,
        map
          (fun t ->
            And
              ( Atom (Present var),
                Atom
                  (Cmp
                     (Eq, Obj_attr ("type", var), Const (Metadata.Value.Str t)))
              ))
          (oneofl obj_types) );
      (1, return (Atom (Present var)));
      ( 2,
        map2
          (fun cmp k ->
            And
              ( Atom (Present var),
                Atom
                  (Cmp
                     ( cmp,
                       Obj_attr ("speed", var),
                       Const (Metadata.Value.Int (10 * k)) )) ))
          (oneofl [ Gt; Le ]) (int_range 1 9) );
    ]

(* temporal skeleton over a leaf generator *)
let rec gen_temporal leaf depth =
  let open QCheck.Gen in
  let open Ast in
  if depth <= 0 then leaf
  else
    let sub = gen_temporal leaf (depth - 1) in
    frequency
      [
        (2, map2 (fun g h -> And (g, h)) sub sub);
        (2, map2 (fun g h -> Until (g, h)) sub sub);
        (1, map (fun g -> Next g) sub);
        (1, map (fun g -> Eventually g) sub);
        (2, leaf);
      ]

(* the three strata the differential harness exercises over stores *)
let gen_type1_formula ~depth = gen_temporal gen_closed_atom depth

let gen_type2_formula ~depth =
  QCheck.Gen.map
    (fun body -> Ast.Exists ("x", body))
    (gen_temporal (gen_open_atom "x") depth)

(* Conjunctive formulas: [exists x . (present(x) and [v <- speed(x)] b)]
   where the body [b] is a temporal skeleton whose leaves compare the
   frozen variables in scope with [speed(x)].  Any node of the skeleton
   may freeze another variable ([w] inside [v]) over a temporal body, so
   freezes also sit under either argument of [until], under [next] and
   [eventually], and nested in one another. *)
let gen_conjunctive_formula ~depth =
  let open QCheck.Gen in
  let open Ast in
  let freeze_atom var =
    map2
      (fun cmp flip ->
        if flip then Atom (Cmp (cmp, Obj_attr ("speed", "x"), Attr_var var))
        else Atom (Cmp (cmp, Attr_var var, Obj_attr ("speed", "x"))))
      (oneofl [ Gt; Ge; Lt; Le; Eq ])
      bool
  in
  let freeze var body = Freeze { var; attr = "speed"; obj = Some "x"; body } in
  let rec body vars depth =
    let leaf = oneof (gen_open_atom "x" :: List.map freeze_atom vars) in
    if depth <= 0 then leaf
    else
      let sub = body vars (depth - 1) in
      (* a freeze over a temporal body: over a non-temporal one the
         freeze is part of an atomic formula, scored by picture
         retrieval rather than joined with a value table *)
      let nested =
        match List.find_opt (fun w -> not (List.mem w vars)) [ "w" ] with
        | Some w ->
            let inner = body (w :: vars) (depth - 1) in
            [
              ( 2,
                map (freeze w)
                  (oneof
                     [
                       map (fun g -> Eventually g) inner;
                       map (fun g -> Next g) inner;
                       map2 (fun g h -> Until (g, h)) inner inner;
                     ]) );
            ]
        | None -> []
      in
      frequency
        ([
           (2, map2 (fun g h -> And (g, h)) sub sub);
           (2, map2 (fun g h -> Until (g, h)) sub sub);
           (1, map (fun g -> Next g) sub);
           (1, map (fun g -> Eventually g) sub);
           (2, leaf);
         ]
        @ nested)
  in
  let temporal vars depth =
    let sub = body vars depth in
    oneof
      [
        map (fun g -> Eventually g) sub;
        map (fun g -> Next g) sub;
        map2 (fun g h -> Until (g, h)) sub sub;
      ]
  in
  frequency
    [
      ( 3,
        map
          (fun b -> Exists ("x", And (Atom (Present "x"), freeze "v" b)))
          (body [ "v" ] depth) );
      (* the frozen evaluation must carry the corridor across changes of
         the frozen value *)
      ( 1,
        map2
          (fun g h -> Exists ("x", Until (freeze "v" g, h)))
          (temporal [ "v" ] (depth - 1))
          (gen_open_atom "x") );
    ]

(* nullary named predicates over precomputed tables (the §4.2 setting) *)
let gen_table_formula ~names ~depth =
  let open QCheck.Gen in
  gen_temporal (map (fun p -> Ast.Atom (Ast.Rel (p, []))) (oneofl names)) depth

let gen_closed_formula ~depth =
  let open QCheck.Gen in
  frequency
    [
      (2, gen_type1_formula ~depth);
      (2, gen_type2_formula ~depth);
      (1, gen_conjunctive_formula ~depth);
    ]

(* Shrinker: replace a node by a (closed) subformula or [Atom True], or
   shrink a child in place.  Candidates leaving the conjunctive fragment
   (e.g. an open subformula pulled out of its binder) are filtered
   against Htl.Classify.check, so reported counterexamples stay
   evaluable by every backend. *)
let shrink_formula f =
  let open QCheck.Iter in
  let open Ast in
  let rec shr f =
    match f with
    | Atom True -> empty
    | Atom _ -> return (Atom True)
    | And (g, h) ->
        of_list [ g; h; Atom True ]
        <+> map (fun g' -> And (g', h)) (shr g)
        <+> map (fun h' -> And (g, h')) (shr h)
    | Until (g, h) ->
        of_list [ g; h; Atom True ]
        <+> map (fun g' -> Until (g', h)) (shr g)
        <+> map (fun h' -> Until (g, h')) (shr h)
    | Next g ->
        of_list [ g; Atom True ] <+> map (fun g' -> Next g') (shr g)
    | Eventually g ->
        of_list [ g; Atom True ] <+> map (fun g' -> Eventually g') (shr g)
    | Exists (x, g) ->
        of_list [ g; Atom True ] <+> map (fun g' -> Exists (x, g')) (shr g)
    | Freeze fr ->
        of_list [ fr.body; Atom True ]
        <+> map (fun b -> Freeze { fr with body = b }) (shr fr.body)
    | At_level (sel, g) ->
        of_list [ g; Atom True ] <+> map (fun g' -> At_level (sel, g')) (shr g)
    | Or (g, h) -> of_list [ g; h; Atom True ]
    | Not g -> of_list [ g; Atom True ]
  in
  filter (fun c -> Result.is_ok (Htl.Classify.check c)) (shr f)

(* arbitrary for (store seed, closed formula): the seed regenerates the
   random store, the formula shrinks structurally *)
let arb_store_formula ?(depth = 2) gen =
  let gen =
    let open QCheck.Gen in
    map2 (fun seed f -> (seed, f)) (int_bound 1_000_000) (gen ~depth)
  in
  let print (seed, f) =
    Printf.sprintf "store seed %d, formula %s" seed (Htl.Pretty.to_string f)
  in
  let shrink (seed, f) =
    QCheck.Iter.map (fun f' -> (seed, f')) (shrink_formula f)
  in
  QCheck.make ~print ~shrink gen

let arb_table_formula ?(depth = 3) ~names () =
  let gen =
    let open QCheck.Gen in
    map2
      (fun seed f -> (seed, f))
      (int_bound 1_000_000)
      (gen_table_formula ~names ~depth)
  in
  let print (seed, f) =
    Printf.sprintf "table seed %d, formula %s" seed (Htl.Pretty.to_string f)
  in
  let shrink (seed, f) =
    QCheck.Iter.map (fun f' -> (seed, f')) (shrink_formula f)
  in
  QCheck.make ~print ~shrink gen
