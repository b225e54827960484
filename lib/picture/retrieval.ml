open Htl.Ast
module Store = Video_model.Store
module Seg_meta = Metadata.Seg_meta
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table
module Range = Simlist.Range

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type config = {
  taxonomy : Taxonomy.t;
  weights : Weights.t;
  max_rows : int;
  prune : bool;
}

let default_config =
  {
    taxonomy = Taxonomy.default;
    weights = Weights.default;
    max_rows = 20_000;
    prune = true;
  }

(* Evaluation environments of the interpreter: an object variable bound
   to [None] is a wildcard — it stands for any object that appears
   nowhere in the data, so every condition involving it scores 0.  An
   attribute variable bound to [None] had an undefined attribute
   function frozen into it. *)
type env = {
  objs : (string * int option) list;
  attrs : (string * Metadata.Value.t option) list;
}

let obj_binding env x =
  match List.assoc_opt x env.objs with Some b -> b | None -> None

let rec validate = function
  | Atom _ -> ()
  | And (f, g) -> validate f; validate g
  | Exists (_, f) | Freeze { body = f; _ } -> validate f
  | Or _ -> unsupported "disjunction has no similarity semantics (§2.5)"
  | Not _ -> unsupported "negation has no similarity semantics (§2.5)"
  | Next _ | Until _ | Eventually _ ->
      unsupported "temporal operator inside an atomic formula"
  | At_level _ -> unsupported "level operator inside an atomic formula"

(* --- the interpreter ---------------------------------------------------- *)

(* [score] re-reads the formula at every segment.  It is reached only
   through [score_at]: the independent oracle the staged scorer below is
   tested against.  Both evaluate operands left to right, so a formula
   with two unbound attribute variables fails on the same one. *)

let eval_term store ~level ~env ~id = function
  | Const v -> Some v
  | Attr_var y -> (
      match List.assoc_opt y env.attrs with
      | Some v -> v
      | None -> unsupported "unbound attribute variable %s" y)
  | Obj_attr (q, x) -> (
      match obj_binding env x with
      | Some oid -> Seg_meta.object_attr (Store.meta store ~level ~id) oid q
      | None -> None)
  | Seg_attr q -> Seg_meta.attr (Store.meta store ~level ~id) q

(* [type(x) = "T"] (either way round) gets taxonomy-graded credit. *)
let type_query cmp t1 t2 =
  match (cmp, t1, t2) with
  | Eq, Obj_attr ("type", x), Const (Metadata.Value.Str t)
  | Eq, Const (Metadata.Value.Str t), Obj_attr ("type", x) ->
      Some (x, t)
  | _, _, _ -> None

let credit cfg store ~level ~env ~id atom =
  let meta () = Store.meta store ~level ~id in
  match atom with
  | True -> 1.
  | False -> 0.
  | Present x -> (
      match obj_binding env x with
      | Some oid when Seg_meta.present (meta ()) oid -> 1.
      | Some _ | None -> 0.)
  | Rel (r, args) ->
      let ids = List.filter_map (obj_binding env) args in
      if List.length ids = List.length args && Spatial.holds (meta ()) r ids
      then 1.
      else 0.
  | Cmp (cmp, t1, t2) -> (
      match type_query cmp t1 t2 with
      | Some (x, asked) -> (
          match obj_binding env x with
          | Some oid -> (
              match Seg_meta.find_object (meta ()) oid with
              | Some o ->
                  Taxonomy.similarity cfg.taxonomy ~asked
                    ~found:o.Metadata.Entity.otype
              | None -> 0.)
          | None -> 0.)
      | None -> (
          let v1 = eval_term store ~level ~env ~id t1 in
          let v2 = eval_term store ~level ~env ~id t2 in
          match (v1, v2) with
          | Some v1, Some v2 -> if Htl.Exact.eval_cmp cmp v1 v2 then 1. else 0.
          | _, _ -> 0.))

let rec score cfg store ~level ~env ~id = function
  | Atom a -> Weights.atom_weight cfg.weights a *. credit cfg store ~level ~env ~id a
  | And (f, g) ->
      let a = score cfg store ~level ~env ~id f in
      let b = score cfg store ~level ~env ~id g in
      a +. b
  | Exists (x, body) ->
      (* best local witness; the wildcard covers objects absent here *)
      let meta = Store.meta store ~level ~id in
      let options =
        None
        :: List.map
             (fun (o : Metadata.Entity.t) -> Some o.id)
             meta.Seg_meta.objects
      in
      List.fold_left
        (fun acc c ->
          Float.max acc
            (score cfg store ~level
               ~env:{ env with objs = (x, c) :: env.objs }
               ~id body))
        0. options
  | Freeze { var; attr; obj; body } -> (
      let meta = Store.meta store ~level ~id in
      let value =
        match obj with
        | Some x ->
            Option.bind (obj_binding env x) (fun oid ->
                Seg_meta.object_attr meta oid attr)
        | None -> Seg_meta.attr meta attr
      in
      (* an undefined attribute function fails the freeze (§3.3: the
         value table offers no row) *)
      match value with
      | None -> 0.
      | Some _ ->
          score cfg store ~level
            ~env:{ env with attrs = (var, value) :: env.attrs }
            ~id body)
  | (Or _ | Not _ | Next _ | Until _ | Eventually _ | At_level _) as f ->
      unsupported "cannot score %s" (Htl.Pretty.to_string f)

(* --- the staged scorer -------------------------------------------------- *)

(* [compile] turns a validated formula, once per evaluation, into a
   closure over (segment meta-data, slot environment).  Variables are
   resolved to slot indices, each binder getting a slot of its own; atom
   weights and type credits are read at compile time; the meta-data is
   searched by the non-allocating helpers below, which answer [absent]
   or [no_entity] where the [Seg_meta] accessors answer [None].  Every
   score equals the interpreter's bit for bit: the same float operations
   in the same order. *)

module Value = Metadata.Value
module Entity = Metadata.Entity

(* allocated here, so no stored value or object is physically equal *)
let absent = Value.Str (String.make 1 '\000')
let no_entity = Entity.make ~id:0 ~otype:(String.make 1 '\000') ()

(* An object slot whose [bound] flag is off is a wildcard; an attribute
   slot holding [absent] had an undefined attribute frozen into it. *)
type slots = { bound : bool array; oids : int array; vals : Value.t array }

let rec find_entity oid = function
  | [] -> no_entity
  | (o : Entity.t) :: tl -> if o.id = oid then o else find_entity oid tl

let rec find_value q = function
  | [] -> absent
  | (k, v) :: tl -> if String.equal k q then v else find_value q tl

(* the object of slot [s] at this segment: [no_entity] for a wildcard or
   an object absent here *)
let slot_entity (meta : Seg_meta.t) env s =
  if env.bound.(s) then find_entity env.oids.(s) meta.objects else no_entity

(* [Entity.attr], staged on the attribute name *)
let entity_attr = function
  | "type" -> fun (o : Entity.t) -> Value.Str o.otype
  | "id" -> fun (o : Entity.t) -> Value.Int o.id
  | q -> fun (o : Entity.t) -> find_value q o.attrs

(* [Value.compare_num] without the options: [incomparable] for
   non-numeric operands *)
let incomparable = 2

let compare_values (v1 : Value.t) (v2 : Value.t) =
  match (v1, v2) with
  | Int a, Int b -> Float.compare (float_of_int a) (float_of_int b)
  | Int a, Float b -> Float.compare (float_of_int a) b
  | Float a, Int b -> Float.compare a (float_of_int b)
  | Float a, Float b -> Float.compare a b
  | (Int _ | Float _ | Str _ | Bool _), _ -> incomparable

(* [Htl.Exact.eval_cmp], staged on the operator *)
let holds_cmp cmp =
  let ordered test v1 v2 =
    let c = compare_values v1 v2 in
    c <> incomparable && test c
  in
  match cmp with
  | Eq -> Value.equal
  | Ne -> fun v1 v2 -> not (Value.equal v1 v2)
  | Lt -> ordered (fun c -> c < 0)
  | Le -> ordered (fun c -> c <= 0)
  | Gt -> ordered (fun c -> c > 0)
  | Ge -> ordered (fun c -> c >= 0)

let rec all_bound env slots i =
  i = Array.length slots || (env.bound.(slots.(i)) && all_bound env slots (i + 1))

(* [Relationship.equal] against the objects bound to [slots] *)
let rec args_match env slots i = function
  | [] -> i = Array.length slots
  | a :: tl ->
      i < Array.length slots
      && a = env.oids.(slots.(i))
      && args_match env slots (i + 1) tl

let rec stored name env slots = function
  | [] -> false
  | (r : Metadata.Relationship.t) :: tl ->
      (String.equal r.name name && args_match env slots 0 r.args)
      || stored name env slots tl

(* [Spatial.holds]' bounding-box arm for the two objects of [slots] *)
let derived_holds r (meta : Seg_meta.t) env slots =
  let a = find_entity env.oids.(slots.(0)) meta.objects
  and b = find_entity env.oids.(slots.(1)) meta.objects in
  a != no_entity && b != no_entity
  &&
  match (a.bbox, b.bbox) with
  | Some ba, Some bb -> Spatial.derive r ba bb
  | _, _ -> false

(* [exists]: the best of the wildcard and of every object present here,
   folded in the interpreter's order *)
let rec witnesses body s meta env best = function
  | [] -> best
  | (o : Entity.t) :: tl ->
      env.oids.(s) <- o.id;
      witnesses body s meta env (Float.max best (body meta env)) tl

let best_witness body s (meta : Seg_meta.t) env =
  env.bound.(s) <- false;
  let best = Float.max 0. (body meta env) in
  env.bound.(s) <- true;
  witnesses body s meta env best meta.objects

(* A term under slot environments: [obj_slot] places its object
   variable, [vals] the attribute variables in scope. *)
let stage_term ~obj_slot ~vals = function
  | Const v -> fun _ _ -> v
  | Attr_var y -> (
      match List.assoc_opt y vals with
      | Some s -> fun _ env -> env.vals.(s)
      | None -> fun _ _ -> unsupported "unbound attribute variable %s" y)
  | Obj_attr (q, x) ->
      let s = obj_slot x and get = entity_attr q in
      fun meta env ->
        let o = slot_entity meta env s in
        if o == no_entity then absent else get o
  | Seg_attr q -> fun (meta : Seg_meta.t) _ -> find_value q meta.attrs

type compiled = {
  n_objs : int;
  n_vals : int;
  run : Seg_meta.t -> slots -> float;
}

(* Free object variables take slots [0 ..] in [obj_vars] order, free
   attribute variables slots [0 ..] in [attr_vars] order.  [types] are
   the object types the type credits are tabled for; others fall back
   to [Taxonomy.similarity]. *)
let compile cfg ~types ~obj_vars ~attr_vars f =
  let n_objs = ref 0 and n_vals = ref 0 in
  let fresh n =
    let s = !n in
    incr n;
    s
  in
  (* a variable nothing binds gets a slot nothing binds: a wildcard *)
  let obj_slot objs x =
    match List.assoc_opt x objs with Some s -> s | None -> fresh n_objs
  in
  let term objs vals = stage_term ~obj_slot:(obj_slot objs) ~vals in
  let atom objs vals a =
    let w = Weights.atom_weight cfg.weights a in
    match a with
    | True ->
        let s = w *. 1. in
        fun _ _ -> s
    | False ->
        let s = w *. 0. in
        fun _ _ -> s
    | Present x ->
        let s = obj_slot objs x in
        fun meta env ->
          w *. if slot_entity meta env s == no_entity then 0. else 1.
    | Rel (r, args) ->
        let slots = Array.of_list (List.map (obj_slot objs) args) in
        let derivable = Array.length slots = 2 && List.mem r Spatial.derived in
        fun meta env ->
          w
          *.
          if
            all_bound env slots 0
            && (stored r env slots meta.relationships
               || (derivable && derived_holds r meta env slots))
          then 1.
          else 0.
    | Cmp (cmp, t1, t2) -> (
        match type_query cmp t1 t2 with
        | Some (x, asked) ->
            let s = obj_slot objs x in
            let similarity found =
              Taxonomy.similarity cfg.taxonomy ~asked ~found
            in
            let credits = Hashtbl.create 16 in
            List.iter
              (fun found -> Hashtbl.replace credits found (similarity found))
              types;
            fun meta env ->
              let o = slot_entity meta env s in
              w
              *.
              if o == no_entity then 0.
              else (
                match Hashtbl.find credits o.otype with
                | c -> c
                | exception Not_found -> similarity o.otype)
        | None ->
            let e1 = term objs vals t1 in
            let e2 = term objs vals t2 in
            let holds = holds_cmp cmp in
            fun meta env ->
              let v1 = e1 meta env in
              let v2 = e2 meta env in
              w *. if v1 != absent && v2 != absent && holds v1 v2 then 1. else 0.
        )
  in
  let rec go objs vals = function
    | Atom a -> atom objs vals a
    | And (f, g) ->
        let cf = go objs vals f in
        let cg = go objs vals g in
        fun meta env ->
          let a = cf meta env in
          let b = cg meta env in
          a +. b
    | Exists (x, body) ->
        let s = fresh n_objs in
        best_witness (go ((x, s) :: objs) vals body) s
    | Freeze { var; attr; obj; body } ->
        let value =
          term objs vals
            (match obj with Some x -> Obj_attr (attr, x) | None -> Seg_attr attr)
        in
        let s = fresh n_vals in
        let body = go objs ((var, s) :: vals) body in
        fun meta env ->
          let v = value meta env in
          if v == absent then 0.
          else begin
            env.vals.(s) <- v;
            body meta env
          end
    | (Or _ | Not _ | Next _ | Until _ | Eventually _ | At_level _) as f ->
        unsupported "cannot score %s" (Htl.Pretty.to_string f)
  in
  let objs = List.map (fun x -> (x, fresh n_objs)) obj_vars in
  let vals = List.map (fun y -> (y, fresh n_vals)) attr_vars in
  let run = go objs vals f in
  { n_objs = !n_objs; n_vals = !n_vals; run }

(* A fresh environment for [c], its free slots bound from [objs] and
   [vals] (in [obj_vars] / [attr_vars] order; [None] and [absent] leave a
   slot wildcarded / undefined).  Scoring writes binder slots, so every
   scan — and under the pool every chunk — owns one. *)
let new_slots c ~objs ~vals =
  let env =
    {
      bound = Array.make c.n_objs false;
      oids = Array.make c.n_objs 0;
      vals = Array.make c.n_vals absent;
    }
  in
  List.iteri
    (fun i -> function
      | Some oid ->
          env.bound.(i) <- true;
          env.oids.(i) <- oid
      | None -> ())
    objs;
  List.iteri (fun j v -> env.vals.(j) <- v) vals;
  env

(* --- attribute-variable regions ---------------------------------------- *)

(* Collect the comparisons constraining the free attribute variable [y]
   as [(cmp, other-term)] pairs, normalised with [y] on the left.
   Scope-aware: a freeze re-binding [y] shadows it; other-term may not
   depend on inner-quantified object variables (the satisfying region
   would then not be a plain range). *)
let y_atoms f y =
  let flip = function
    | Lt -> Gt
    | Le -> Ge
    | Gt -> Lt
    | Ge -> Le
    | (Eq | Ne) as c -> c
  in
  let check_other ~local t =
    (match t with
    | Attr_var _ ->
        unsupported "comparison between two attribute variables (§3.3)"
    | Const _ | Obj_attr _ | Seg_attr _ -> ());
    (match t with
    | Obj_attr (_, x) when List.mem x local ->
        unsupported
          "attribute-variable comparison depends on an inner existential"
    | _ -> ());
    t
  in
  let rec go ~local acc = function
    | Atom (Cmp (c, Attr_var v, t)) when v = y ->
        (c, check_other ~local t) :: acc
    | Atom (Cmp (c, t, Attr_var v)) when v = y ->
        (flip c, check_other ~local t) :: acc
    | Atom _ -> acc
    | And (f, g) -> go ~local (go ~local acc f) g
    | Exists (x, f) -> go ~local:(x :: local) acc f
    | Freeze { var; body = _; _ } when var = y -> acc (* shadowed *)
    | Freeze { body; _ } -> go ~local acc body
    | Or (f, g) | Until (f, g) -> go ~local (go ~local acc f) g
    | Not f | Next f | Eventually f | At_level (_, f) -> go ~local acc f
  in
  go ~local:[] [] f

let merge_sorted_unique xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | x :: xtl, y :: ytl ->
        if x < y then x :: go xtl ys
        else if y < x then y :: go xs ytl
        else x :: go xtl ytl
  in
  go xs ys

(* The elementary regions of [y] under a fixed object binding: ranges on
   which every comparison's truth is constant, each with a representative
   value used to evaluate the formula on that region.  The value points
   come from the finalized index (sorted and deduplicated at build time),
   not from a per-evaluation store scan. *)
let regions idx ~env_objs f y =
  let atoms = y_atoms f y in
  let n = Index.segment_count idx in
  let raise_bad = function
    | `Float ->
        unsupported "frozen attribute variables must range over integers (§3.3)"
    | `Bool -> unsupported "frozen attribute variables cannot be boolean"
  in
  let add_points (ints, strs) (p : Index.points) =
    (match p.Index.bad with Some b -> raise_bad b | None -> ());
    ( merge_sorted_unique p.Index.ints ints,
      merge_sorted_unique p.Index.strs strs )
  in
  let add (ints, strs) (_, t) =
    match t with
    | Const v ->
        if n = 0 then (ints, strs)
        else (
          match v with
          | Metadata.Value.Int k -> (merge_sorted_unique [ k ] ints, strs)
          | Metadata.Value.Str s -> (ints, merge_sorted_unique [ s ] strs)
          | Metadata.Value.Float _ -> raise_bad `Float
          | Metadata.Value.Bool _ -> raise_bad `Bool)
    | Attr_var _ -> (ints, strs) (* rejected by [y_atoms] *)
    | Obj_attr (q, x) -> (
        match List.assoc_opt x env_objs with
        | Some (Some oid) ->
            add_points (ints, strs) (Index.obj_attr_points idx q ~oid)
        | Some None | None -> (ints, strs))
    | Seg_attr q -> add_points (ints, strs) (Index.seg_attr_points idx q)
  in
  let int_points, str_points = List.fold_left add ([], []) atoms in
  match (int_points, str_points) with
  | [], [] -> [ (Range.full_int, Metadata.Value.Int 0) ]
  | _ :: _, _ :: _ ->
      unsupported "attribute variable compared with both integers and strings"
  | [], strs ->
      (Range.full_str, Metadata.Value.Str "\000<other>")
      :: List.map (fun s -> (Range.str_eq s, Metadata.Value.Str s)) strs
  | (first :: _ as points), [] ->
      let last = List.nth points (List.length points - 1) in
      let middle =
        let rec go = function
          | a :: (b :: _ as tl) ->
              let point = (Range.int_eq a, Metadata.Value.Int a) in
              if b > a + 1 then
                point
                :: (Range.int_between (a + 1) (b - 1), Metadata.Value.Int (a + 1))
                :: go tl
              else point :: go tl
          | [ a ] -> [ (Range.int_eq a, Metadata.Value.Int a) ]
          | [] -> []
        in
        go points
      in
      ((Range.int_le (first - 1), Metadata.Value.Int (first - 1)) :: middle)
      @ [ (Range.int_ge (last + 1), Metadata.Value.Int (last + 1)) ]

(* --- own classes -------------------------------------------------------- *)

(* Under a fixed object binding, a segment's score depends on an
   attribute variable only through its comparisons with the other
   terms' values at that segment: its own points (§3.3).  Two values
   that every own point orders and equates alike lie in one own class
   and score alike, bit for bit.  For integers a class is a contiguous
   run of elementary regions. *)

(* the own points of one variable at a segment, from its staged
   comparison terms; undefined values compare with nothing *)
let rec own_points terms meta env i acc =
  if i = Array.length terms then acc
  else
    let v = terms.(i) meta env in
    own_points terms meta env (i + 1) (if v == absent then acc else v :: acc)

(* [a] and [b] compare alike with every point of [points] *)
let rec alike a b = function
  | [] -> true
  | p :: tl ->
      compare_values a p = compare_values b p
      && Value.equal a p = Value.equal b p
      && alike a b tl

(* value tuples [a] and [b] are in one own class: alike in every
   variable [j] from on, [owns.(j)] holding its own points *)
let rec same_class owns a b j =
  j = Array.length owns
  || (alike a.(j) b.(j) owns.(j) && same_class owns a b (j + 1))

(* --- table construction ------------------------------------------------ *)

let cartesian options_per_var =
  List.fold_right
    (fun options acc ->
      List.concat_map (fun o -> List.map (fun rest -> o :: rest) acc) options)
    options_per_var [ [] ]

let index_for ?metrics ?index store ~level =
  match index with
  | Some idx ->
      if Index.level idx <> level then
        invalid_arg "Picture.Retrieval.eval: index level mismatch";
      idx
  | None -> Index.build ?metrics store ~level

(* Every binding of the free object variables, in table order: each
   variable ranges over the wildcard ([None], first) and the objects of
   the level. *)
let bindings config idx f =
  let obj_vars = free_obj_vars f in
  let support = Index.objects_at_level idx in
  let combo_count =
    Float.pow (float_of_int (1 + List.length support))
      (float_of_int (List.length obj_vars))
  in
  if combo_count > float_of_int config.max_rows then
    unsupported "too many candidate evaluations (%d objects, %d variables)"
      (List.length support) (List.length obj_vars);
  cartesian
    (List.map
       (fun x -> List.map (fun o -> (x, o)) (None :: List.map Option.some support))
       obj_vars)

(* --- freeze domains ------------------------------------------------------ *)

type domain = { attr : string; obj : string option }

(* The values the enclosing freeze of [y] can give it under [combo]:
   those of its attribute on the object [combo] binds its object
   variable to, or of the segment attribute.  [None] (no filter) when no
   freeze encloses [y], or when [combo] wildcards or does not bind the
   freeze's object variable. *)
let domain_points idx ~combo domains y =
  match List.assoc_opt y domains with
  | Some { attr; obj = None } -> Some (Index.seg_attr_points idx attr)
  | Some { attr; obj = Some x } -> (
      match List.assoc_opt x combo with
      | Some (Some oid) -> Some (Index.obj_attr_points idx attr ~oid)
      | Some None | None -> None)
  | None -> None

(* The regions holding one of [points].  Integer regions ascend and are
   disjoint, so one walk drops the points below each region in turn. *)
let holding (points : Index.points) regions =
  let rec go ints = function
    | [] -> []
    | ((range, _) as region) :: rest -> (
        match (range, ints) with
        | Range.Ints { lo = Some lo; _ }, p :: tl when p < lo ->
            go tl (region :: rest)
        | Range.Ints _, p :: _ when Range.mem (Range.Vint p) range ->
            region :: go ints rest
        | Range.Str _, _
          when List.exists (fun s -> Range.mem (Range.Vstr s) range) points.strs
          ->
            region :: go ints rest
        | (Range.Ints _ | Range.Str _), _ -> go ints rest)
  in
  go points.ints regions

(* The table of [f] over [combos]: under each binding, one row per region
   tuple of the free attribute variables, built only for the regions
   that hold a value of their variable's domain.  [dropped] counts the
   region tuples the domains removed.  [rows ~combo ~bound ~reps] builds
   all of a binding's rows at once, from the regions' representative
   values (one tuple per row, in region order); a row is [None] when the
   wildcard row subsumes it. *)
let build_table config idx f ~domains ~dropped ~combos rows =
  let attr_vars = free_attr_vars f in
  let out = ref [] and row_count = ref 0 in
  let tuples per_var = List.fold_left (fun n l -> n * List.length l) 1 per_var in
  List.iter
    (fun combo ->
      let bound =
        List.filter_map (fun (x, o) -> Option.map (fun o -> (x, o)) o) combo
      in
      let all = List.map (fun y -> regions idx ~env_objs:combo f y) attr_vars in
      let kept =
        List.map2
          (fun y regions ->
            match domain_points idx ~combo domains y with
            | Some points -> holding points regions
            | None -> regions)
          attr_vars all
      in
      dropped := !dropped + tuples all - tuples kept;
      let region_combos = cartesian kept in
      row_count := !row_count + List.length region_combos;
      if !row_count > config.max_rows then
        unsupported "similarity table exceeds %d rows" config.max_rows;
      let lists =
        rows ~combo ~bound ~reps:(List.map (List.map snd) region_combos)
      in
      List.iter2
        (fun rc -> function
          | None -> ()
          | Some list ->
              (* empty rows still matter when they carry a range (they
                 mark region coverage for later joins) *)
              if attr_vars <> [] || not (Sim_list.is_empty list) then
                out :=
                  {
                    Sim_table.objs = List.sort compare bound;
                    attrs =
                      List.map2 (fun y (range, _) -> (y, range)) attr_vars rc;
                    list;
                  }
                  :: !out)
        region_combos lists)
    combos;
  Sim_table.create ~obj_cols:(free_obj_vars f) ~attr_cols:attr_vars
    ~max:(Weights.total config.weights f) (List.rev !out)

(* the candidates of a bound row: where a bound object appears *)
let bound_candidates idx bound =
  List.fold_left
    (fun acc (_, oid) -> Pruning.union acc (Index.segments_of_object idx oid))
    [||] bound

(* the index of [id] in the ascending [ids] between [lo] and [hi], or -1 *)
let rec position ids id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    if ids.(mid) < id then position ids id (mid + 1) hi
    else if ids.(mid) > id then position ids id lo mid
    else mid

let eval ?(config = default_config) ?pool ?tracer ?metrics ?stats ?index
    ?(domains = []) store ~level f =
  validate f;
  let max_total = Weights.total config.weights f in
  let obj_vars = free_obj_vars f in
  let attr_vars = free_attr_vars f in
  let idx = index_for ?metrics ?index store ~level in
  let n = Index.segment_count idx in
  (* read after the index, so every id up to [n] is in the row *)
  let nodes = Store.nodes_at store ~level in
  (* segments scanned, per level: one count per scorer call (full scans,
     pruned scans and candidate rescans alike) *)
  let scanned_key = Printf.sprintf "picture.segments_scanned.l%d" level in
  let scored = Atomic.make 0 and region_count = ref 0 and dropped = ref 0 in
  let scanned k =
    ignore (Atomic.fetch_and_add scored k);
    match metrics with
    | Some m -> Obs.Metrics.incr m ~by:k scanned_key
    | None -> ()
  in
  (* Candidate pruning: a static plan over the index's posting families
     covering every segment where the formula can score nonzero.  [None]
     means the plan degenerated to the whole level — keep the plain
     scan.  The plan only depends on the formula shape (attribute
     variables are value-independent), so one candidate array serves
     every region combination's base scan. *)
  let pruned =
    if config.prune then
      Pruning.candidates ~taxonomy:config.taxonomy idx (Pruning.plan f)
    else None
  in
  (* observed selectivity: what fraction of the level the pruning pass
     actually left for this atom — a full scan records candidates = n,
     so selectivity 1 means "the index bought nothing here".  Fed on
     every evaluation, this is the planner's index-vs-scan signal. *)
  (match stats with
  | Some st when n > 0 ->
      let candidates =
        match pruned with Some c -> Array.length c | None -> n
      in
      Obs.Stats.record_atom st ~atom:(Htl.Pretty.to_string f) ~level
        ~candidates ~segments:n
  | Some _ | None -> ());
  let combos = bindings config idx f in
  let scorer =
    compile config ~types:(Index.types_at_level idx) ~obj_vars ~attr_vars f
  in
  (* [scan ~objs count body] runs [body env k] for every k below
     [count]; [body] answers how many times it called the scorer.
     Scoring reads the store, taxonomy and weights only and writes its
     own environment, so the range chunks across the pool freely, one
     environment per chunk; [body] writes disjoint slots. *)
  let scan ~objs count body =
    let run ~lo ~hi =
      let env = new_slots scorer ~objs ~vals:[] in
      let calls = ref 0 in
      for k = lo to hi do
        calls := !calls + body env k
      done;
      scanned !calls
    in
    match pool with
    | Some p -> Parallel.Pool.iter_chunks p count run
    | None -> if count > 0 then run ~lo:0 ~hi:(count - 1)
  in
  let meta_of id = nodes.(id - 1).Store.meta in
  (* each free attribute variable's comparison terms, staged over the
     free object slots ([y_atoms] admits free variables only); forced
     after [regions] has vetted them *)
  let own_terms =
    lazy
      (let slots = List.mapi (fun i x -> (x, i)) obj_vars in
       Array.of_list
         (List.map
            (fun y ->
              Array.of_list
                (List.map
                   (fun (_, t) ->
                     stage_term
                       ~obj_slot:(fun x -> List.assoc x slots)
                       ~vals:[] t)
                   (y_atoms f y)))
            attr_vars))
  in
  let owns_at meta env =
    Array.map
      (fun terms -> own_points terms meta env 0 [])
      (Lazy.force own_terms)
  in
  (* Segment [id] at every representative tuple of [reps], in order,
     its score at [reps.(r)] going to [out.(r).(pos)]: a tuple in the
     previous tuple's own class copies its score, any other is scored.
     Region tuples come in region order, so for a single variable a
     class is one run of them.  Without attribute variables there is
     one tuple, the empty one.  Answers the number of scorer calls. *)
  let no_attr_vars = attr_vars = [] in
  let sweep env id reps out pos =
    let meta = meta_of id in
    if no_attr_vars then begin
      out.(0).(pos) <- scorer.run meta env;
      1
    end
    else begin
      let owns = owns_at meta env in
      let calls = ref 0 in
      for r = 0 to Array.length reps - 1 do
        let rep = reps.(r) in
        if r > 0 && same_class owns reps.(r - 1) rep 0 then
          out.(r).(pos) <- out.(r - 1).(pos)
        else begin
          for j = 0 to Array.length rep - 1 do
            env.vals.(j) <- rep.(j)
          done;
          out.(r).(pos) <- scorer.run meta env;
          incr calls
        end
      done;
      !calls
    end
  in
  let wildcards = List.map (fun _ -> None) obj_vars in
  (* Base rows (every object variable wildcarded) per representative
     tuple: the scores of the base candidates, and their list when a row
     needs it. *)
  let base_count, base_id =
    match pruned with
    | Some c -> (Array.length c, fun k -> c.(k))
    | None -> (n, fun k -> k + 1)
  in
  let base_pos id =
    match pruned with
    | Some c -> position c id 0 (Array.length c)
    | None -> id - 1
  in
  let base_cache : (Value.t array, float array * Sim_list.t Lazy.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let fill_base reps =
    let scores = Array.map (fun _ -> Array.make base_count 0.) reps in
    (match (pruned, metrics) with
    | Some _, Some mt ->
        Obs.Metrics.incr mt ~by:base_count "picture.index.candidates";
        Obs.Metrics.incr mt ~by:(n - base_count) "picture.index.pruned_segments"
    | None, _ | _, None -> ());
    (* forced here, not by the pool's chunks *)
    ignore (Lazy.force own_terms);
    scan ~objs:wildcards base_count (fun env k ->
        sweep env (base_id k) reps scores k);
    Array.iteri
      (fun r rep ->
        let scores = scores.(r) in
        let list =
          lazy
            (match pruned with
            | Some ids ->
                Sim_list.overlay (Sim_list.empty ~max:max_total) ~ids
                  ~values:scores
            | None -> Sim_list.of_dense ~max:max_total scores)
        in
        Hashtbl.replace base_cache rep (scores, list))
      reps
  in
  (* A binding's rows from one sweep.  A bound row differs from its base
     row only where a bound object appears, so only those candidates
     are scored.  The row is redundant when every candidate keeps its
     base score; otherwise its list is the base list overlaid with the
     candidates' scores. *)
  let rows ~combo ~bound ~reps =
    let reps = Array.of_list (List.map Array.of_list reps) in
    region_count := !region_count + Array.length reps;
    let missing =
      List.sort_uniq compare
        (List.filter
           (fun rep -> not (Hashtbl.mem base_cache rep))
           (Array.to_list reps))
    in
    if missing <> [] then fill_base (Array.of_list missing);
    let bases = Array.map (Hashtbl.find base_cache) reps in
    if bound = [] then
      Array.to_list (Array.map (fun (_, list) -> Some (Lazy.force list)) bases)
    else begin
      let candidates = bound_candidates idx bound in
      let m = Array.length candidates in
      let values = Array.map (fun _ -> Array.make m 0.) reps in
      scan ~objs:(List.map snd combo) m (fun env k ->
          sweep env candidates.(k) reps values k);
      Array.to_list
        (Array.map2
           (fun (scores, list) values ->
             let rec same k =
               k = m
               ||
               let p = base_pos candidates.(k) in
               values.(k) = (if p < 0 then 0. else scores.(p)) && same (k + 1)
             in
             if same 0 then None
             else
               Some
                 (Sim_list.overlay (Lazy.force list) ~ids:candidates ~values))
           bases values)
    end
  in
  let span_of f =
    match tracer with
    | None -> f ()
    | Some tr ->
        Obs.Trace.with_span tr "picture.eval"
          ~attrs:
            [
              ("level", string_of_int level);
              ("segments", string_of_int n);
              ("combos", string_of_int (List.length combos));
              ( "pruning",
                match pruned with
                | Some c -> string_of_int (Array.length c)
                | None -> "full" );
            ]
          (fun () ->
            let table = f () in
            Obs.Trace.add_attr tr "rows"
              (string_of_int (Sim_table.row_count table));
            Obs.Trace.add_attr tr "regions" (string_of_int !region_count);
            Obs.Trace.add_attr tr "scored" (string_of_int (Atomic.get scored));
            if List.exists (fun y -> List.mem_assoc y domains) attr_vars then
              Obs.Trace.add_attr tr "regions_dropped" (string_of_int !dropped);
            table)
  in
  span_of @@ fun () -> build_table config idx f ~domains ~dropped ~combos rows

let score_at ?(config = default_config) ?(attrs = []) store ~level ~id ~env f =
  validate f;
  score config store ~level
    ~env:{ objs = List.map (fun (x, o) -> (x, Some o)) env; attrs }
    ~id f

let scorer ?(config = default_config) ?(attrs = []) ?index store ~level ~env f
    =
  validate f;
  let idx = index_for ?index store ~level in
  let nodes = Store.nodes_at store ~level in
  let c =
    compile config ~types:(Index.types_at_level idx)
      ~obj_vars:(List.map fst env) ~attr_vars:(List.map fst attrs) f
  in
  let slots =
    new_slots c
      ~objs:(List.map (fun (_, o) -> Some o) env)
      ~vals:(List.map (fun (_, v) -> Option.value v ~default:absent) attrs)
  in
  fun ~id -> c.run nodes.(id - 1).Store.meta slots

let eval_dense ?(config = default_config) ?index ?(domains = []) store ~level f
    =
  validate f;
  let idx = index_for ?index store ~level in
  let n = Index.segment_count idx in
  let attr_vars = free_attr_vars f in
  let dense ~env ~reps =
    let attrs = List.map2 (fun y v -> (y, Some v)) attr_vars reps in
    Array.init n (fun i -> score_at ~config ~attrs store ~level ~id:(i + 1) ~env f)
  in
  let max = Weights.total config.weights f in
  build_table config idx f ~domains ~dropped:(ref 0)
    ~combos:(bindings config idx f) (fun ~combo:_ ~bound ~reps ->
      List.map
        (fun reps ->
          let row = dense ~env:bound ~reps in
          if bound <> [] && row = dense ~env:[] ~reps then None
          else Some (Sim_list.of_dense ~max row))
        reps)

let max_similarity ?(config = default_config) f = Weights.total config.weights f
