(* Tests for the picture retrieval substrate: taxonomy, spatial relations,
   weights, and the similarity-table construction for atomic formulas. *)

open Picture
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table
module Range = Simlist.Range

let parse = Htl.Parser.formula_of_string

let taxonomy_tests =
  let open Alcotest in
  let t = Taxonomy.default in
  [
    test_case "exact type matches fully" `Quick (fun () ->
        check (float 0.) "man/man" 1. (Taxonomy.similarity t ~asked:"man" ~found:"man"));
    test_case "subtype of the asked type matches fully" `Quick (fun () ->
        check (float 0.) "person asked, man found" 1.
          (Taxonomy.similarity t ~asked:"person" ~found:"man"));
    test_case "supertype gives partial credit" `Quick (fun () ->
        check (float 1e-9) "man asked, person found" 0.5
          (Taxonomy.similarity t ~asked:"man" ~found:"person"));
    test_case "siblings give partial credit" `Quick (fun () ->
        check (float 1e-9) "woman/man" 0.25
          (Taxonomy.similarity t ~asked:"woman" ~found:"man");
        check (float 1e-9) "train/car" 0.25
          (Taxonomy.similarity t ~asked:"train" ~found:"car"));
    test_case "distant relatives decay further" `Quick (fun () ->
        check (float 1e-9) "man/train" 0.0625
          (Taxonomy.similarity t ~asked:"man" ~found:"train"));
    test_case "unknown types only match themselves" `Quick (fun () ->
        check (float 0.) "alien/alien" 1.
          (Taxonomy.similarity t ~asked:"alien" ~found:"alien");
        check (float 0.) "alien/man" 0.
          (Taxonomy.similarity t ~asked:"alien" ~found:"man"));
    test_case "is_subtype is reflexive-transitive" `Quick (fun () ->
        check bool "man <= person" true (Taxonomy.is_subtype t ~sub:"man" ~super:"person");
        check bool "man <= thing" true (Taxonomy.is_subtype t ~sub:"man" ~super:"thing");
        check bool "man <= man" true (Taxonomy.is_subtype t ~sub:"man" ~super:"man");
        check bool "person <= man" false (Taxonomy.is_subtype t ~sub:"person" ~super:"man"));
    test_case "add rejects duplicates and unknown parents" `Quick (fun () ->
        (try
           ignore (Taxonomy.add t "man");
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        (try
           ignore (Taxonomy.add t ~parent:"ghost" "spirit");
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    test_case "compatible is exactly a positive similarity" `Quick (fun () ->
        (* two trees, so some pairs of members share no ancestor *)
        let forest =
          Taxonomy.of_edges
            [
              (None, "thing"); (Some "thing", "person"); (Some "person", "man");
              (Some "thing", "car"); (None, "place"); (Some "place", "city");
            ]
        in
        let names = [ "thing"; "person"; "man"; "car"; "place"; "city"; "alien" ] in
        List.iter
          (fun asked ->
            List.iter
              (fun found ->
                check bool
                  (Printf.sprintf "%s/%s" asked found)
                  (Taxonomy.similarity forest ~asked ~found > 0.)
                  (Taxonomy.compatible forest ~asked ~found))
              names)
          names);
  ]

let spatial_tests =
  let open Alcotest in
  let box x0 x1 = Metadata.Bbox.make ~x0 ~y0:0. ~x1 ~y1:1. in
  let meta =
    Metadata.Seg_meta.make
      ~objects:
        [
          Metadata.Entity.make ~id:1 ~otype:"man" ~bbox:(box 0. 1.) ();
          Metadata.Entity.make ~id:2 ~otype:"train" ~bbox:(box 2. 3.) ();
          Metadata.Entity.make ~id:3 ~otype:"gun" ();
        ]
      ~relationships:[ Metadata.Relationship.make "holds" [ 1; 3 ] ]
      ()
  in
  [
    test_case "explicit relationships" `Quick (fun () ->
        check bool "holds" true (Spatial.holds meta "holds" [ 1; 3 ]);
        check bool "wrong order" false (Spatial.holds meta "holds" [ 3; 1 ]));
    test_case "derived from bounding boxes" `Quick (fun () ->
        check bool "left_of" true (Spatial.holds meta "left_of" [ 1; 2 ]);
        check bool "right_of" true (Spatial.holds meta "right_of" [ 2; 1 ]);
        check bool "not left" false (Spatial.holds meta "left_of" [ 2; 1 ]));
    test_case "missing boxes derive nothing" `Quick (fun () ->
        check bool "no box" false (Spatial.holds meta "left_of" [ 1; 3 ]));
    test_case "unknown relation" `Quick (fun () ->
        check bool "nope" false (Spatial.holds meta "chases" [ 1; 2 ]));
  ]

let weights_tests =
  let open Alcotest in
  [
    test_case "default weight is 1 per atom" `Quick (fun () ->
        check (float 0.) "three atoms" 3.
          (Weights.total Weights.default
             (parse "present(x) and type(x) = \"man\" and holds(x, y)")));
    test_case "per-key overrides" `Quick (fun () ->
        let w = Weights.create [ ("present", 2.); ("rel:holds", 5.) ] in
        check (float 0.) "weighted" 8.
          (Weights.total w
             (parse "present(x) and type(x) = \"man\" and holds(x, y)")));
    test_case "quantifiers are transparent" `Quick (fun () ->
        check (float 0.) "exists" 2.
          (Weights.total Weights.default
             (parse "exists x . present(x) and type(x) = \"man\"")));
    test_case "total rejects temporal formulas" `Quick (fun () ->
        try
          ignore (Weights.total Weights.default (parse "eventually present(x)"));
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

(* --- retrieval ------------------------------------------------------------ *)

let store = Fixtures.western_store ()

let retrieval_tests =
  let open Alcotest in
  [
    test_case "closed formula gives a one-column table" `Quick (fun () ->
        let t =
          Retrieval.eval store ~level:2
            (parse "exists x . (present(x) and type(x) = \"train\")")
        in
        check (list string) "no cols" [] (Sim_table.obj_cols t);
        let l = Sim_table.project_exists t in
        (* full match (2.0) at shots 3 and 5 where the train appears;
           partial type credit elsewhere: person vs train = 2^-4 *)
        check (float 1e-9) "shot 3" 2. (Sim_list.value_at l 3);
        check (float 1e-9) "shot 5" 2. (Sim_list.value_at l 5);
        check (float 1e-9) "shot 1 partial" 1.0625 (Sim_list.value_at l 1);
        check (float 1e-9) "shot 6 empty" 0. (Sim_list.value_at l 6));
    test_case "free variable tables have one row per relevant object" `Quick
      (fun () ->
        let t =
          Retrieval.eval store ~level:2
            (parse "present(x) and type(x) = \"man\"")
        in
        check (list string) "col" [ "x" ] (Sim_table.obj_cols t);
        (* objects 1 (john) and 5 (bob) are men; 2 (mary) gets partial
           type credit; 3/4 score 1 for presence only *)
        let value oid seg =
          let row =
            List.find_opt
              (fun (r : Sim_table.row) -> r.objs = [ ("x", oid) ])
              (Sim_table.rows t)
          in
          match row with
          | Some r -> Sim_list.value_at r.list seg
          | None -> 0.
        in
        check (float 1e-9) "john at 1" 2. (value 1 1);
        check (float 1e-9) "john at 3" 0. (value 1 3);
        check (float 1e-9) "mary at 1" 1.25 (value 2 1);
        check (float 1e-9) "train at 3" 1.0625 (value 4 3);
        check (float 1e-9) "bob at 4" 2. (value 5 4));
    test_case "max similarity is the total weight" `Quick (fun () ->
        let f = parse "present(x) and type(x) = \"man\" and holds(x, y)" in
        let t = Retrieval.eval store ~level:2 f in
        check (float 0.) "max" 3. (Sim_table.max_sim t);
        check (float 0.) "max_similarity agrees" 3. (Retrieval.max_similarity f));
    test_case "score_at matches table rows everywhere" `Quick (fun () ->
        (* the strong table-correctness property: for every binding
           (including objects absent from the data) and every segment, the
           best matching row reproduces the direct score *)
        let f = parse "present(x) and (type(x) = \"man\" or false)" in
        (* or false is rejected; use a plain conjunction *)
        ignore f;
        let f = parse "present(x) and type(x) = \"man\" and holds(x, y)" in
        let t = Retrieval.eval store ~level:2 f in
        let row_value env seg =
          (* most specific matching row wins; fall back over padding *)
          List.fold_left
            (fun acc (r : Sim_table.row) ->
              let matches =
                List.for_all
                  (fun (v, o) ->
                    match List.assoc_opt v r.objs with
                    | Some o' -> o = o'
                    | None -> true)
                  env
                && List.for_all
                     (fun (v, o) -> List.mem (v, o) env)
                     r.objs
              in
              if matches then Float.max acc (Sim_list.value_at r.list seg)
              else acc)
            0. (Sim_table.rows t)
        in
        let oids = [ 1; 2; 3; 4; 5; 999 ] in
        List.iter
          (fun ox ->
            List.iter
              (fun oy ->
                for seg = 1 to 6 do
                  let env = [ ("x", ox); ("y", oy) ] in
                  let direct = Retrieval.score_at store ~level:2 ~id:seg ~env f in
                  let table = row_value env seg in
                  check (float 1e-9)
                    (Printf.sprintf "x=%d y=%d seg=%d" ox oy seg)
                    direct table
                done)
              oids)
          oids);
    test_case "inner exists takes the best local witness" `Quick (fun () ->
        let t =
          Retrieval.eval store ~level:2
            (parse "exists z . (present(z) and type(z) = \"woman\")")
        in
        let l = Sim_table.project_exists t in
        check (float 1e-9) "mary at shot 1" 2. (Sim_list.value_at l 1);
        (* shot 2: john is a man: presence 1 + woman~man 0.25 *)
        check (float 1e-9) "best man at shot 2" 1.25 (Sim_list.value_at l 2);
        check (float 1e-9) "empty shot" 0. (Sim_list.value_at l 6));
    test_case "attribute variables produce ranges" `Quick (fun () ->
        (* speed(x) > v: the train has speed 50 at shot 3 and 80 at shot 5 *)
        let t =
          Retrieval.eval store ~level:2 (parse "present(x) and speed(x) > v")
        in
        check (list string) "attr col" [ "v" ] (Sim_table.attr_cols t);
        let train_rows =
          List.filter
            (fun (r : Sim_table.row) -> r.objs = [ ("x", 4) ])
            (Sim_table.rows t)
        in
        check bool "several ranges" true (List.length train_rows >= 3);
        (* for v <= 49 both shots satisfy the comparison *)
        let value_for v seg =
          List.fold_left
            (fun acc (r : Sim_table.row) ->
              if Range.mem (Range.Vint v) (List.assoc "v" r.attrs) then
                Float.max acc (Sim_list.value_at r.list seg)
              else acc)
            0. train_rows
        in
        check (float 1e-9) "v=40 shot 3" 2. (value_for 40 3);
        check (float 1e-9) "v=40 shot 5" 2. (value_for 40 5);
        check (float 1e-9) "v=60 shot 3" 1. (value_for 60 3);
        check (float 1e-9) "v=60 shot 5" 2. (value_for 60 5);
        check (float 1e-9) "v=90 shot 5" 1. (value_for 90 5));
    test_case "freeze inside an atomic formula" `Quick (fun () ->
        (* [v <- speed(x)] v > 60 is non-temporal: compares within one
           segment *)
        let t =
          Retrieval.eval store ~level:2
            (parse "exists x . (present(x) and [v <- speed(x)] v > 60)")
        in
        let l = Sim_table.project_exists t in
        check (float 1e-9) "shot 5 fast train" 2. (Sim_list.value_at l 5);
        check (float 1e-9) "shot 3 slow train" 1. (Sim_list.value_at l 3));
    test_case "temporal operators are rejected" `Quick (fun () ->
        (try
           ignore (Retrieval.eval store ~level:2 (parse "eventually true"));
           fail "expected Unsupported"
         with Retrieval.Unsupported _ -> ());
        (try
           ignore (Retrieval.eval store ~level:2 (parse "not true"));
           fail "expected Unsupported"
         with Retrieval.Unsupported _ -> ()));
    test_case "weights scale the similarity values" `Quick (fun () ->
        let config =
          {
            Retrieval.default_config with
            weights = Weights.create [ ("attr:type", 3.) ];
          }
        in
        let t =
          Retrieval.eval ~config store ~level:2
            (parse "exists x . (present(x) and type(x) = \"train\")")
        in
        let l = Sim_table.project_exists t in
        check (float 0.) "max" 4. (Sim_list.max_sim l);
        check (float 1e-9) "shot 3" 4. (Sim_list.value_at l 3));
  ]

(* --- the staged scorer and sparse rows against the interpreter -------- *)

module Ast = Htl.Ast
module Value = Metadata.Value

(* Atomic formulas over the vocabulary of Workload.Movies stores, reaching
   every scorer path: nested and shadowing [exists], freezes of object
   and segment attributes, type queries naming a type missing from the
   taxonomy ("alien") or present in it but missing from the level
   ("weapon", "airplane"), stored and derived spatial relations,
   attribute variables on either side of a comparison, and Int values
   compared with Float ones. *)
let movie_consts =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun k -> Value.Int (10 * k)) (int_range 0 10));
      (2, map (fun k -> Value.Float (float_of_int (10 * k))) (int_range 0 10));
      (1, return (Value.Float 45.5));
      (2, map (fun s -> Value.Str s) (oneofl [ "calm"; "tense"; "alpha"; "gun" ]));
    ]

let gen_atomic_formula ?(const = movie_consts) () =
  let open QCheck.Gen in
  let open Ast in
  let obj = oneofl [ "x"; "y"; "z" ] in
  let attr_var = oneofl [ "v"; "w" ] in
  let term =
    frequency
      [
        (3, map (fun c -> Const c) const);
        (3, map (fun y -> Attr_var y) attr_var);
        ( 4,
          map2
            (fun q x -> Obj_attr (q, x))
            (oneofl [ "speed"; "speed"; "name"; "type"; "id" ])
            obj );
        (2, map (fun q -> Seg_attr q) (oneofl [ "mood"; "speed" ]));
      ]
  in
  let type_name =
    oneofl [ "man"; "gun"; "horse"; "person"; "weapon"; "airplane"; "alien" ]
  in
  let atom =
    frequency
      [
        (3, map (fun x -> Present x) obj);
        ( 3,
          map3
            (fun r x y -> Rel (r, [ x; y ]))
            (oneofl
               [ "holds"; "fires_at"; "near"; "left_of"; "above"; "overlaps"; "inside" ])
            obj obj );
        (1, map (fun x -> Rel ("holds", [ x ])) obj);
        ( 3,
          map3
            (fun flip t x ->
              if flip then Cmp (Eq, Const (Value.Str t), Obj_attr ("type", x))
              else Cmp (Eq, Obj_attr ("type", x), Const (Value.Str t)))
            bool type_name obj );
        ( 5,
          map3
            (fun c a b -> Cmp (c, a, b))
            (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
            term term );
        (1, oneofl [ True; False ]);
      ]
  in
  let freeze =
    oneofl
      [
        ("speed", Some "x"); ("speed", Some "z"); ("name", Some "y"); ("mood", None);
      ]
  in
  sized_size (int_range 0 5)
    (fix (fun self n ->
         if n = 0 then map (fun a -> Atom a) atom
         else
           frequency
             [
               (1, map (fun a -> Atom a) atom);
               (3, map2 (fun f g -> And (f, g)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun x f -> Exists (x, f)) obj (self (n - 1)));
               ( 2,
                 map3
                   (fun var (attr, obj) body -> Freeze { var; attr; obj; body })
                   attr_var freeze (self (n - 1)) );
             ]))

(* values for the free attribute variables; a variable left out is
   unbound *)
let gen_attr_values =
  let open QCheck.Gen in
  let value =
    oneofl
      [
        `Unbound; `Bound None; `Bound (Some (Value.Int 40));
        `Bound (Some (Value.Float 40.)); `Bound (Some (Value.Float 45.5));
        `Bound (Some (Value.Str "calm"));
      ]
  in
  pair value value

type scorer_case = {
  seed : int;
  level : int;
  f : Ast.t;
  values : [ `Unbound | `Bound of Value.t option ] * [ `Unbound | `Bound of Value.t option ];
}

let arb_scorer_case =
  let gen =
    let open QCheck.Gen in
    map3
      (fun (seed, level) f values -> { seed; level; f; values })
      (pair (int_bound 1_000_000)
         (frequency [ (1, return 1); (1, return 2); (3, return 3) ]))
      (gen_atomic_formula ()) gen_attr_values
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "store seed %d, level %d, formula %s" c.seed c.level
        (Htl.Pretty.to_string c.f))
    gen

let case_store c =
  Workload.Movies.random_store (Workload.Rng.make c.seed) ~videos:3 ~levels:3
    ~branching:4 ~object_pool:4 ()

let case_attrs c =
  let v, w = c.values in
  List.filter_map
    (fun (y, b) ->
      match b with
      | `Bound value when List.mem y (Ast.free_attr_vars c.f) -> Some (y, value)
      | `Bound _ | `Unbound -> None)
    [ ("v", v); ("w", w) ]

(* an enclosing freeze for each of v and w, or none; a drawn domain
   counts only for a free variable *)
let arb_domains =
  let open QCheck in
  let freeze =
    Gen.opt
      (Gen.oneofl
         [
           ("speed", Some "x"); ("speed", Some "z"); ("id", Some "y");
           ("name", Some "y"); ("mood", None);
         ])
  in
  let print = function
    | Some (attr, Some x) -> Printf.sprintf "%s(%s)" attr x
    | Some (attr, None) -> "seg." ^ attr
    | None -> "-"
  in
  make
    ~print:(fun (v, w) -> Printf.sprintf "v <- %s, w <- %s" (print v) (print w))
    (Gen.pair freeze freeze)

let case_domains c (v, w) =
  List.filter_map
    (fun (y, d) ->
      match d with
      | Some (attr, obj) when List.mem y (Ast.free_attr_vars c.f) ->
          Some (y, { Retrieval.attr; obj })
      | Some _ | None -> None)
    [ ("v", v); ("w", w) ]

(* a score or the Unsupported message, compared bit for bit *)
let outcome f =
  match f () with
  | s -> Ok (Int64.bits_of_float s)
  | exception Retrieval.Unsupported msg -> Error msg

(* every binding of [vars] to the wildcard (unbound), an object of the
   pool, or an object absent from the store *)
let rec bindings = function
  | [] -> [ [] ]
  | x :: tl ->
      let rest = bindings tl in
      rest
      @ List.concat_map
          (fun o -> List.map (fun b -> (x, o) :: b) rest)
          [ 1; 2; 3; 4; 99 ]

let table_repr t =
  ( Sim_table.obj_cols t,
    Sim_table.attr_cols t,
    Sim_table.max_sim t,
    List.map
      (fun (r : Sim_table.row) ->
        (r.objs, r.attrs, Sim_list.max_sim r.list, Sim_list.entries r.list))
      (Sim_table.rows t) )

let table_outcome f =
  match f () with
  | t -> Ok (table_repr t)
  | exception Retrieval.Unsupported msg -> Error msg

(* the fixed-shape movie store: 100 videos of 4 plots of 6 scenes *)
let movie_store ?(videos = 100) seed =
  let rng = Workload.Rng.make seed in
  let meta () = Workload.Movies.random_meta rng ~object_pool:8 in
  let node children = Video_model.Segment.make ~meta:(meta ()) children in
  Video_model.Store.create
    (List.init videos (fun v ->
         Video_model.Video.create
           ~title:(Printf.sprintf "movie-%d" v)
           ~level_names:[ "video"; "plot"; "scene" ]
           (node
              (List.init 4 (fun _ ->
                   node
                     (List.init 6 (fun _ ->
                          Video_model.Segment.leaf (meta ()))))))))

let scanned_total m =
  List.fold_left
    (fun acc -> function
      | name, Obs.Metrics.Counter n
        when String.starts_with ~prefix:"picture.segments_scanned" name ->
          acc + n
      | _ -> acc)
    0 (Obs.Metrics.snapshot m)

let staged_tests =
  let open Alcotest in
  [
    Helpers.qtest ~count:200 "compiled scorer equals score_at everywhere"
      (fun c ->
        let store = case_store c in
        let attrs = case_attrs c in
        let n = Video_model.Store.count_at store ~level:c.level in
        List.for_all
          (fun env ->
            let scorer = Retrieval.scorer ~attrs store ~level:c.level ~env c.f in
            List.for_all
              (fun id ->
                outcome (fun () ->
                    Retrieval.score_at ~attrs store ~level:c.level ~id ~env c.f)
                = outcome (fun () -> scorer ~id))
              (List.init n (fun i -> i + 1)))
          (bindings (Ast.free_obj_vars c.f)))
      arb_scorer_case;
    Helpers.qtest ~count:200 "eval equals the dense score_at oracle"
      (fun (c, drawn) ->
        let store = case_store c in
        let domains = case_domains c drawn in
        table_outcome (fun () -> Retrieval.eval ~domains store ~level:c.level c.f)
        = table_outcome (fun () ->
              Retrieval.eval_dense ~domains store ~level:c.level c.f))
      (QCheck.pair arb_scorer_case arb_domains);
    test_case
      "types missing from the index before an append score through the \
       merged index"
      `Quick (fun () ->
        let store = Fixtures.western_store () in
        let index = Index.build store ~level:2 in
        let gun = parse "exists u . type(u) = \"gun\"" in
        (* built columns are extended by the merge, new types interned *)
        ignore (Retrieval.eval ~index store ~level:2 gun);
        let before = Video_model.Store.count_at store ~level:2 in
        Video_model.Store.append_segments store
          [
            Metadata.Seg_meta.make
              ~objects:
                [
                  Metadata.Entity.make ~id:42 ~otype:"rifle" ();
                  Metadata.Entity.make ~id:43 ~otype:"alien" ();
                ]
              ();
          ];
        let id = Video_model.Store.count_at store ~level:2 in
        (match
           ignore
             (Retrieval.scorer ~index store ~level:2 ~env:[] gun
               : id:int -> float)
         with
        | () -> fail "an index behind the store was accepted"
        | exception Invalid_argument _ -> ());
        let index =
          Index.merge index (Index.build_delta store ~level:2 ~lo:(before + 1))
        in
        List.iter
          (fun t ->
            let f =
              parse (Printf.sprintf "exists u . type(u) = \"%s\"" t)
            in
            check (float 0.) t
              (Retrieval.score_at store ~level:2 ~id ~env:[] f)
              (Retrieval.scorer ~index store ~level:2 ~env:[] f ~id))
          [ "gun"; "alien"; "weapon" ]);
    test_case "an attribute no segment binds builds no column" `Quick
      (fun () ->
        let store = Fixtures.western_store () in
        let index = Index.build store ~level:2 in
        List.iter
          (fun q -> ignore (Retrieval.eval ~index store ~level:2 (parse q)))
          [
            "seg.a1 = 1";
            "exists u . (present(u) and a2(u) > 3)";
            "exists u . (present(u) and [w <- a3(u)] (w > speed(u)))";
            "[w <- seg.a4] (w = seg.a5)";
          ];
        check
          (pair (list string) (list string))
          "built columns" ([], [ "speed" ])
          (Columns.attr_columns (Index.columns index store)));
    test_case "an unbound attribute variable raises the same message" `Quick
      (fun () ->
        let f = parse "present(x) and [w <- speed(x)] (w > 30 and speed(x) <= v)" in
        let env = [ ("x", 4) ] in
        let expected = Error "unbound attribute variable v" in
        let scorer = Retrieval.scorer store ~level:2 ~env f in
        let raised = ref 0 in
        for id = 1 to Video_model.Store.count_at store ~level:2 do
          let interp =
            outcome (fun () -> Retrieval.score_at store ~level:2 ~id ~env f)
          in
          if interp = expected then incr raised;
          check bool
            (Printf.sprintf "segment %d" id)
            true
            (interp = outcome (fun () -> scorer ~id))
        done;
        (* raised only where the train's speed is defined *)
        check int "segments reaching the comparison" 2 !raised);
    test_case "eval on a 2-domain pool equals the sequential table" `Quick
      (fun () ->
        let store = movie_store ~videos:200 7 in
        let level = 3 in
        check bool "level above the parallel cutoff" true
          (Video_model.Store.count_at store ~level
          > (Engine.Context.of_store store).Engine.Context.par_cutoff);
        Parallel.Pool.with_pool ~domains:2 (fun pool ->
            List.iter
              (fun q ->
                let f = parse q in
                let bytes t = Marshal.to_string (table_repr t) [] in
                check string q
                  (bytes (Retrieval.eval store ~level f))
                  (bytes (Retrieval.eval ~pool store ~level f)))
              [
                "present(x) and type(x) = \"gun\"";
                "present(x) and [w <- speed(x)] (w > 30 and speed(x) <= v)";
              ]));
    test_case "eval allocates O(1) minor words per scored segment" `Quick
      (fun () ->
        (* a count, not a timing: re-reading the formula at every segment
           costs hundreds of words each *)
        let store = movie_store 1 in
        let level = 3 in
        let index = Index.build store ~level in
        let m = Obs.Metrics.create () in
        let f = parse "exists u . (present(u) and type(u) = \"gun\")" in
        (* the first evaluation builds the level's columns, once *)
        ignore (Retrieval.eval ~index store ~level f);
        let w0 = Gc.minor_words () in
        ignore (Retrieval.eval ~metrics:m ~index store ~level f);
        let words = Gc.minor_words () -. w0 in
        let scored = scanned_total m in
        let per_segment = words /. float_of_int scored in
        check bool "segments scored" true (scored > 1000);
        check bool
          (Printf.sprintf "%.1f minor words per scored segment <= 8"
             per_segment)
          true (per_segment <= 8.));
    test_case "the picture.eval span records rows and segments scored" `Quick
      (fun () ->
        let tr = Obs.Trace.create () and m = Obs.Metrics.create () in
        let t =
          Retrieval.eval ~tracer:tr ~metrics:m store ~level:2
            (parse "present(x) and speed(x) > v")
        in
        match
          List.filter
            (fun s -> s.Obs.Trace.name = "picture.eval")
            (Obs.Trace.spans tr)
        with
        | [ s ] ->
            check (option string) "level" (Some "2") (Obs.Trace.attr s "level");
            check (option string) "rows"
              (Some (string_of_int (Sim_table.row_count t)))
              (Obs.Trace.attr s "rows");
            check (option string) "scored"
              (Some (string_of_int (scanned_total m)))
              (Obs.Trace.attr s "scored");
            (* one region per value of speed(x), between them and beyond
               them, under each binding *)
            check bool "regions" true
              (match Obs.Trace.attr s "regions" with
              | Some r -> int_of_string r >= Sim_table.row_count t
              | None -> false);
            check bool "closed" true (Option.is_some (Obs.Trace.duration_s s))
        | spans -> failf "expected one picture.eval span, got %d" (List.length spans));
  ]

(* --- the columnar view against the interpreter on adversarial data ----- *)

(* Values whose cells must keep apart what [Value] keeps apart: ints past
   2^53 that floats cannot tell apart, an int equal to a float, NaN (a
   present value that orders below everything), both zeros, booleans
   and strings, which no ordered comparison accepts. *)
let adversarial_values =
  [
    Value.Int 40; Value.Float 40.; Value.Int (1 lsl 53); Value.Int ((1 lsl 53) + 1);
    Value.Float (Float.of_int (1 lsl 53)); Value.Float Float.nan; Value.Float (-0.);
    Value.Int 0; Value.Float 45.5; Value.Bool true; Value.Bool false;
    Value.Str "calm"; Value.Str "tense";
  ]

(* Segments whose objects repeat an id, whose attribute lists repeat a
   name (the first binding counts), whose boxes are often missing under
   derivable relations, and whose relationships repeat, with any
   arity. *)
let gen_adversarial_meta =
  let open QCheck.Gen in
  let value = oneofl adversarial_values in
  let attrs names = list_size (int_range 0 3) (pair (oneofl names) value) in
  let bbox =
    opt
      (map2
         (fun x y -> Metadata.Bbox.make ~x0:x ~y0:y ~x1:(x +. 2.) ~y1:(y +. 2.))
         (float_range 0. 4.) (float_range 0. 4.))
  in
  let obj =
    map3
      (fun (id, otype) attrs bbox -> Metadata.Entity.make ~id ~otype ~attrs ?bbox ())
      (pair (int_range 1 4) (oneofl [ "man"; "gun"; "horse"; "alien" ]))
      (attrs [ "speed"; "name"; "speed"; "type" ])
      bbox
  in
  let rel =
    map2 Metadata.Relationship.make
      (oneofl [ "holds"; "left_of"; "near"; "overlaps" ])
      (list_size (int_range 1 3) (int_range 1 4))
  in
  map3
    (fun objects relationships attrs ->
      Metadata.Seg_meta.make ~objects ~relationships ~attrs ())
    (list_size (int_range 0 4) obj)
    (list_size (int_range 0 3) rel)
    (attrs [ "mood"; "speed"; "mood" ])

let adversarial_store seed =
  let rand = Random.State.make [| seed |] in
  let metas =
    QCheck.Gen.generate1 ~rand
      (QCheck.Gen.list_size (QCheck.Gen.int_range 4 12) gen_adversarial_meta)
  in
  Video_model.Store.of_video (Video_model.Video.two_level ~title:"adversarial" metas)

type adversarial_case = {
  store_seed : int;
  formula : Ast.t;
  bound : Value.t option option * Value.t option option;
      (* v and w: unbound, or bound to a value or to undefined *)
  weights : int;  (* an index into [adversarial_weights] *)
}

(* Weights the compiled scorer's shortcuts must respect: zero weights
   (a conjunct that cannot lift a witness), and, for the scorer alone,
   negative, signed-zero, infinite and NaN weights, under which no
   witness may be skipped.  The first [table_weights] keep tables
   valid (a similarity maximum is finite and not negative). *)
let adversarial_weights =
  [|
    Weights.default;
    Weights.create ~default_weight:0.5 [ ("present", 0.); ("rel:holds", 2.) ];
    Weights.create ~default_weight:2. [ ("cmp", 0.); ("attr:speed", 0.) ];
    Weights.create ~default_weight:(-1.) [ ("present", 1.) ];
    Weights.create ~default_weight:(-0.) [];
    Weights.create [ ("present", Float.infinity); ("attr:speed", Float.nan) ];
  |]

let table_weights = 3

let arb_adversarial =
  let open QCheck.Gen in
  let const =
    frequency [ (2, movie_consts); (3, oneofl adversarial_values) ]
  in
  let binding = opt (opt (oneofl adversarial_values)) in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "store seed %d, weights %d, formula %s" c.store_seed
        c.weights
        (Htl.Pretty.to_string c.formula))
    (map4
       (fun store_seed formula bound weights ->
         { store_seed; formula; bound; weights })
       (int_bound 1_000_000)
       (gen_atomic_formula ~const ())
       (pair binding binding)
       (int_bound (Array.length adversarial_weights - 1)))

let weights_config c =
  { Retrieval.default_config with weights = adversarial_weights.(c.weights) }

let columnar_tests =
  let open Alcotest in
  [
    Helpers.qtest ~count:300 "compiled scorer equals score_at on adversarial data"
      (fun c ->
        let store = adversarial_store c.store_seed in
        let v, w = c.bound in
        let attrs =
          List.filter_map
            (fun (y, b) ->
              match b with
              | Some value when List.mem y (Ast.free_attr_vars c.formula) ->
                  Some (y, value)
              | Some _ | None -> None)
            [ ("v", v); ("w", w) ]
        in
        let n = Video_model.Store.count_at store ~level:2 in
        let config = weights_config c in
        List.for_all
          (fun env ->
            let scorer =
              Retrieval.scorer ~config ~attrs store ~level:2 ~env c.formula
            in
            List.for_all
              (fun id ->
                outcome (fun () ->
                    Retrieval.score_at ~config ~attrs store ~level:2 ~id ~env
                      c.formula)
                = outcome (fun () -> scorer ~id))
              (List.init n (fun i -> i + 1)))
          (bindings (Ast.free_obj_vars c.formula)))
      arb_adversarial;
    Helpers.qtest ~count:300 "eval equals the dense oracle on adversarial data"
      (fun (c, drawn) ->
        let store = adversarial_store c.store_seed in
        let domains =
          case_domains
            { seed = 0; level = 2; f = c.formula; values = (`Unbound, `Unbound) }
            drawn
        in
        let config =
          weights_config { c with weights = c.weights mod table_weights }
        in
        table_outcome (fun () ->
            Retrieval.eval ~config ~domains store ~level:2 c.formula)
        = table_outcome (fun () ->
              Retrieval.eval_dense ~config ~domains store ~level:2 c.formula))
      (QCheck.pair arb_adversarial arb_domains);
    test_case "a merged index extends the columns it had built" `Quick
      (fun () ->
        let store = movie_store ~videos:4 3 in
        let level = 3 in
        let registry = Index.Registry.create () in
        let queries =
          [
            "exists u . (present(u) and speed(u) > 40)";
            "seg.mood = \"calm\" and exists u, v . holds(u, v)";
            "present(x) and [w <- speed(x)] (w > 30 and speed(x) <= v)";
          ]
        in
        let check_all what =
          let index = Index.Registry.get registry store ~level in
          List.iter
            (fun q ->
              let f = parse q in
              check bool
                (Printf.sprintf "%s: %s" what q)
                true
                (table_outcome (fun () -> Retrieval.eval ~index store ~level f)
                = table_outcome (fun () -> Retrieval.eval_dense store ~level f)))
            queries
        in
        check_all "built";
        let rng = Workload.Rng.make 11 in
        Video_model.Store.append_segments store
          (List.init 30 (fun _ -> Workload.Movies.random_meta rng ~object_pool:8));
        check_all "merged");
  ]

(* Work counts on the fixed-shape 2.4k-leaf movie store, not timings *)
let count_tests =
  let open Alcotest in
  let level = 3 in
  let store = lazy (movie_store 1) in
  let spans_named tr name =
    List.filter (fun s -> s.Obs.Trace.name = name) (Obs.Trace.spans tr)
  in
  let int_attr s k =
    match Obs.Trace.attr s k with
    | Some v -> int_of_string v
    | None -> failf "span %s has no %s" s.Obs.Trace.name k
  in
  [
    test_case "an attribute-variable atom scores each candidate per own class"
      `Quick (fun () ->
        (* under a binding, v < speed(x) changes only at the segment's own
           speed: at most three classes, so at most three scorer calls
           per candidate, where one per elementary region used to be *)
        let store = Lazy.force store in
        let idx = Index.build store ~level in
        let tr = Obs.Trace.create () in
        ignore
          (Retrieval.eval ~tracer:tr ~index:idx store ~level
             (parse "v < speed(x)"));
        match spans_named tr "picture.eval" with
        | [ s ] ->
            let base =
              match Obs.Trace.attr s "pruning" with
              | Some "full" -> Index.segment_count idx
              | Some c -> int_of_string c
              | None -> fail "no pruning attr"
            in
            let bound =
              List.fold_left
                (fun acc oid ->
                  acc + Array.length (Index.segments_of_object idx oid))
                0
                (Index.objects_at_level idx)
            in
            let scored = int_attr s "scored" in
            check bool
              (Printf.sprintf "scored %d <= 3 x (%d + %d)" scored base bound)
              true
              (scored <= 3 * (base + bound));
            check bool "more regions than bindings" true
              (int_attr s "regions" > int_attr s "combos")
        | spans -> failf "expected one picture.eval span, got %d" (List.length spans));
    test_case "an atom under a freeze builds only the rows it can keep"
      `Quick (fun () ->
        (* v < speed(x) over every binding builds one row per region of
           speed(x); under [v <- speed(x)] a bound row survives only on a
           region holding one of its object's speeds *)
        let store = Lazy.force store in
        let tr = Obs.Trace.create () in
        let ctx =
          Engine.Context.with_tracer
            (Engine.Context.without_cache (Engine.Context.of_store store))
            tr
        in
        ignore
          (Engine.Query.run ctx
             (parse
                "exists x . [v <- speed(x)] (speed(x) >= v until v >= \
                 speed(x))"));
        let free = Obs.Trace.create () in
        let all =
          Sim_table.row_count
            (Retrieval.eval ~tracer:free store ~level (parse "v < speed(x)"))
        in
        let all_regions =
          match spans_named free "picture.eval" with
          | [ s ] ->
              check (option string) "no domain, no count" None
                (Obs.Trace.attr s "regions_dropped");
              int_attr s "regions"
          | _ -> fail "expected one picture.eval span"
        in
        match spans_named tr "picture.eval" with
        | [ a; b ] ->
            List.iter
              (fun s ->
                let rows = int_attr s "rows" in
                check bool (Printf.sprintf "%d rows < %d" rows all) true
                  (rows < all);
                check bool "regions dropped" true
                  (int_attr s "regions_dropped" > 0);
                check int "regions kept + dropped" all_regions
                  (int_attr s "regions" + int_attr s "regions_dropped"))
              [ a; b ]
        | spans -> failf "expected two picture.eval spans, got %d" (List.length spans));
    test_case "candidates covering most of the level scan it in full" `Quick
      (fun () ->
        (* segments with an object are most of the level, so pruning to
           them saves less than its candidate path costs; a rare
           relationship still prunes *)
        let store = Lazy.force store in
        let pruning q =
          let tr = Obs.Trace.create () in
          ignore (Retrieval.eval ~tracer:tr store ~level (parse q));
          match spans_named tr "picture.eval" with
          | [ s ] -> Obs.Trace.attr s "pruning"
          | spans -> failf "expected one picture.eval span, got %d" (List.length spans)
        in
        check (option string) "speed" (Some "full")
          (pruning "exists z . (present(z) and speed(z) > 40)");
        match pruning "exists x, y . fires_at(x, y)" with
        | Some c when c <> "full" ->
            check bool "fires_at prunes" true
              (int_of_string c < Video_model.Store.count_at store ~level / 2)
        | other -> failf "fires_at: pruning %s" (Option.value other ~default:"-"));
    test_case "a freeze emits one row per binding" `Quick (fun () ->
        let store = Lazy.force store in
        let tr = Obs.Trace.create () in
        let ctx =
          Engine.Context.with_tracer
            (Engine.Context.without_cache (Engine.Context.of_store store))
            tr
        in
        ignore
          (Engine.Query.run ctx
             (parse
                "exists x . (present(x) and ([v <- speed(x)] (v < speed(x) \
                 until speed(x) <= v)))"));
        let bindings =
          List.length (Index.objects_at_level (Index.build store ~level))
        in
        match spans_named tr "direct.freeze" with
        | [ s ] ->
            let rows = int_attr s "rows" and value_rows = int_attr s "value_rows" in
            check bool
              (Printf.sprintf "%d rows for %d bindings" rows bindings)
              true (rows <= bindings);
            check bool "several values per binding" true (value_rows > rows);
            (* every value row read is one matched or the one ending a run:
               one run per (row, binding) pair *)
            check bool "visited counts value rows read" true
              (int_attr s "visited" >= value_rows)
        | spans -> failf "expected one direct.freeze span, got %d" (List.length spans));
  ]

let suites =
  [
    ("picture.taxonomy", taxonomy_tests);
    ("picture.spatial", spatial_tests);
    ("picture.weights", weights_tests);
    ("picture.retrieval", retrieval_tests);
    ("picture.staged", staged_tests);
    ("picture.columnar", columnar_tests);
    ("picture.counts", count_tests);
  ]
