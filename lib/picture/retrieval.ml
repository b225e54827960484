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

(* --- the columnar scorer ------------------------------------------------ *)

(* [compile] turns a validated formula, once per evaluation, into
   closures over (segment id, slot environment) that read the level's
   {!Columns}.  Every name is resolved to an int at compile time:
   variables to slots, each binder getting a slot of its own; attribute
   names to columns; types, relationship names and string constants to
   interned ids; atom weights and type credits are multiplied out.
   Atoms are data ([atom_code]) that one inlined function scores, so an atom,
   a conjunction of two atoms and an [exists] over either cost one
   closure call; a larger node writes its score into a float register
   of its own.  No score is boxed, and scoring a segment allocates
   nothing.  Every score equals the interpreter's bit for bit: the same
   float operations in the same order. *)

module Value = Metadata.Value

(* An object slot whose [bound] flag is off is a wildcard.  [pos] is the
   row position of the slot's object at the segment being scored, -1
   for a wildcard or an object absent there.  An attribute slot holding
   an absent cell had an undefined attribute frozen into it. *)
type slots = {
  bound : bool array;
  oids : int array;
  pos : int array;
  vals : Columns.cells;
  acc : float array;  (* one register per formula node *)
  own : int array;  (* the own points located at this segment *)
}

(* [Float.max], here so that it inlines and its operands stay unboxed:
   the +0/-0 and NaN cases, rare in scores, take the library's path *)
let[@inline] fmax (x : float) (y : float) =
  if y > x then y
  else if x > y then x
  else if x = y && (x <> 0. || not (Float.sign_bit x)) then x
  else Float.max x y

(* the row position of the first object [oid] in [p .. hi - 1], or -1 *)
let rec find_oid (oids : int array) oid p hi =
  if p >= hi then -1 else if oids.(p) = oid then p else find_oid oids oid (p + 1) hi

(* --- cells as values *)

let[@inline] tag (c : Columns.cells) i = Bytes.get c.tags i
let[@inline] defined c i = tag c i <> Columns.tag_absent
let[@inline] numeric t = t = Columns.tag_int || t = Columns.tag_float

(* [Value.equal] of two defined cells: Int/Int exactly, other numeric
   pairs as floats (NaN equals nothing), strings by id, booleans by
   value *)
let[@inline] equal (a : Columns.cells) i (b : Columns.cells) j =
  let ta = tag a i and tb = tag b j in
  if ta = Columns.tag_int && tb = Columns.tag_int then a.ints.(i) = b.ints.(j)
  else if numeric ta && numeric tb then (a.nums.(i) : float) = b.nums.(j)
  else ta = tb && a.ints.(i) = b.ints.(j)

let incomparable = 2

(* [Value.compare_num] without the option: [Float.compare] of two
   numeric cells (ints through [float_of_int]), else [incomparable] *)
let[@inline] order (a : Columns.cells) i (b : Columns.cells) j =
  if numeric (tag a i) && numeric (tag b j) then Float.compare a.nums.(i) b.nums.(j)
  else incomparable

(* A term reads one cell of a column: a constant's, the segment's, the
   object's in a slot, or an attribute slot's.  An attribute no segment
   of the level binds is [Absent]: it has no column. *)
type term =
  | Konst of Columns.cells
  | Seg of Columns.cells
  | Obj of Columns.cells * int
  | Slot of int
  | Absent
  | Unbound of string

(* the index of [t]'s cell at segment [seg], -1 when it is undefined *)
let[@inline] locate t seg env =
  match t with
  | Konst _ -> 0
  | Seg c -> if defined c (seg - 1) then seg - 1 else -1
  | Obj (c, s) ->
      let p = env.pos.(s) in
      if p >= 0 && defined c p then p else -1
  | Slot s -> if defined env.vals s then s else -1
  | Absent -> -1
  | Unbound y -> unsupported "unbound attribute variable %s" y

let[@inline] column t env =
  match t with
  | Konst c | Seg c | Obj (c, _) -> c
  | Slot _ | Absent | Unbound _ -> env.vals

(* [Htl.Exact.eval_cmp] on two defined cells *)
let[@inline] holds cmp a i b j =
  match cmp with
  | Eq -> equal a i b j
  | Ne -> not (equal a i b j)
  | Lt | Le | Gt | Ge -> (
      let c = order a i b j in
      c <> incomparable
      &&
      match cmp with
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge | Eq | Ne -> c >= 0)

(* --- atoms *)

(* An atom scores [w1] where it holds and [w0] where not (its weight
   times 1 and 0); a type query scores its type's credit. *)
type atom_code =
  | Fixed of float
  | Present of { s : int; w0 : float; w1 : float }
  | Type_credit of { s : int; credits : float array; otype : int array; w0 : float }
  | Related of { test : int -> slots -> bool; w0 : float; w1 : float }
  | Compare of { cmp : cmp; e1 : term; e2 : term; w0 : float; w1 : float }

(* [a]'s score at [seg] into register [r].  Each arm stores its own
   result, so no arm's float is boxed to meet another's. *)
let[@inline] atom_into a r seg env =
  match a with
  | Fixed s -> env.acc.(r) <- s
  | Present { s; w0; w1 } -> env.acc.(r) <- (if env.pos.(s) < 0 then w0 else w1)
  | Type_credit { s; credits; otype; w0 } ->
      let p = env.pos.(s) in
      if p < 0 then env.acc.(r) <- w0 else env.acc.(r) <- credits.(otype.(p))
  | Related { test; w0; w1 } -> env.acc.(r) <- (if test seg env then w1 else w0)
  | Compare { cmp; e1; e2; w0; w1 } ->
      (* both terms are read before either is tested, as the interpreter
         reads them *)
      let i1 = locate e1 seg env in
      let i2 = locate e2 seg env in
      env.acc.(r) <-
        (if i1 >= 0 && i2 >= 0 && holds cmp (column e1 env) i1 (column e2 env) i2
         then w1
         else w0)

(* A compiled node: [run] writes its score into register [reg].  When
   the node is one atom, or the conjunction of two (scored into their
   own registers), its parent scores them inline instead.  With [live]
   given, the node scores [idle] under every binding at a segment where
   [live] is false: an [exists] over it then skips its witnesses. *)
type node = {
  reg : int;
  run : int -> slots -> unit;
  atoms : [ `One of atom_code | `Two of atom_code * int * atom_code * int | `Tree ];
  live : (int -> bool) option;
  idle : float;
}

let[@inline] node_score n seg env =
  match n.atoms with
  | `One a ->
      atom_into a n.reg seg env;
      env.acc.(n.reg)
  | `Two (a, ra, b, rb) ->
      atom_into a ra seg env;
      atom_into b rb seg env;
      env.acc.(ra) +. env.acc.(rb)
  | `Tree ->
      n.run seg env;
      env.acc.(n.reg)

type compiled = {
  n_free : int;  (* the free object slots, [0 ..], resolved per segment *)
  n_objs : int;
  n_vals : int;
  n_regs : int;
  root : int;  (* the register holding the formula's score *)
  objects : Columns.objects;
  run : int -> slots -> unit;
  term : Htl.Ast.term -> term;  (* a term over the free slots *)
  intern : string -> int;
}

let no_objects =
  { Columns.off = [||]; oid = [||]; first = [||]; otype = [||]; bbox = [||]; types = [||] }

let rec reads_objects = function
  | Atom (Present _ | Rel _) | Exists _ -> true
  | Atom (Cmp (_, t1, t2)) ->
      List.exists (function Obj_attr _ -> true | _ -> false) [ t1; t2 ]
  | Atom (True | False) -> false
  | And (f, g) | Or (f, g) | Until (f, g) -> reads_objects f || reads_objects g
  | Freeze { obj; body; _ } -> Option.is_some obj || reads_objects body
  | Not f | Next f | Eventually f | At_level (_, f) -> reads_objects f

let rec reads_relations = function
  | Atom (Rel _) -> true
  | Atom _ -> false
  | And (f, g) | Or (f, g) | Until (f, g) -> reads_relations f || reads_relations g
  | Exists (_, f) | Freeze { body = f; _ } | Not f | Next f | Eventually f
  | At_level (_, f) ->
      reads_relations f

(* a relationship named [id] among [j .. hi - 1] *)
let rec names (rname : int array) id j hi =
  j < hi && (rname.(j) = id || names rname id (j + 1) hi)

(* The relationship atom [name(slots)]: [Spatial.holds] on the objects
   bound to [slots], all of which must be bound.  Stored relationships
   are matched by [Relationship.equal]: the name's id, then the
   arguments; a derivable binary relation also holds when both objects
   are here with boxes that satisfy it. *)
let related (rel : Columns.relations) (objects : Columns.objects) ~id ~derive
    slots =
  let { Columns.roff; rname; aoff; args } = rel in
  let arity = Array.length slots in
  let rec all_bound env i =
    i = arity || (env.bound.(slots.(i)) && all_bound env (i + 1))
  in
  let rec args_match env a i =
    i = arity || (args.(a + i) = env.oids.(slots.(i)) && args_match env a (i + 1))
  in
  let rec stored env j hi =
    j < hi
    && ((rname.(j) = id
        && aoff.(j + 1) - aoff.(j) = arity
        && args_match env aoff.(j) 0)
       || stored env (j + 1) hi)
  in
  let derived =
    match (derive, slots) with
    | Some holds, [| sa; sb |] -> (
        fun env ->
          let pa = env.pos.(sa) and pb = env.pos.(sb) in
          pa >= 0 && pb >= 0
          &&
          match (objects.bbox.(pa), objects.bbox.(pb)) with
          | Some ba, Some bb -> holds ba bb
          | _, _ -> false)
    | _, _ -> fun _ -> false
  in
  fun seg env ->
    all_bound env 0 && (stored env roff.(seg - 1) roff.(seg) || derived env)

(* Free object variables take slots [0 ..] in [obj_vars] order, free
   attribute variables slots [0 ..] in [attr_vars] order. *)
let compile cfg idx store ~obj_vars ~attr_vars f =
  let cols = Index.columns idx store in
  let objects =
    if obj_vars <> [] || reads_objects f then Columns.objects cols
    else no_objects
  in
  let relations =
    if reads_relations f then Some (Columns.relations cols) else None
  in
  (* a column only for a name some segment of the level binds: a name
     with no posting reads as absent everywhere, so queries naming
     attributes the level lacks build and keep nothing *)
  let seg_col q =
    if Array.length (Index.segments_with_seg_attr idx q) = 0 then None
    else Some (Columns.seg_attr cols q)
  in
  let obj_col q =
    if Array.length (Index.segments_with_obj_attr idx q) = 0 then None
    else Some (Columns.obj_attr cols q)
  in
  let read_term = function
    | Obj_attr (q, _) -> ignore (obj_col q)
    | Seg_attr q -> ignore (seg_col q)
    | Const _ | Attr_var _ -> ()
  in
  let rec read_columns = function
    | Atom (Cmp (cmp, t1, t2)) when type_query cmp t1 t2 = None ->
        read_term t1;
        read_term t2
    | Atom _ -> ()
    | And (f, g) | Or (f, g) | Until (f, g) ->
        read_columns f;
        read_columns g
    | Freeze { attr; obj; body; _ } ->
        read_term (match obj with Some x -> Obj_attr (attr, x) | None -> Seg_attr attr);
        read_columns body
    | Exists (_, f) | Not f | Next f | Eventually f | At_level (_, f) ->
        read_columns f
  in
  read_columns f;
  (* Every column this evaluation reads is built now, so a string the
     view interns past this point, or never, is in none of them: it gets
     an id of its own, below 0. *)
  let known = Columns.interned cols in
  let local = Hashtbl.create 8 in
  let intern s =
    match Columns.lookup cols s with
    | Some id when id < known -> id
    | Some _ | None -> (
        match Hashtbl.find_opt local s with
        | Some id -> id
        | None ->
            let id = -1 - Hashtbl.length local in
            Hashtbl.add local s id;
            id)
  in
  let fresh n =
    let s = !n in
    incr n;
    s
  in
  let n_objs = ref 0 and n_vals = ref 0 and n_regs = ref 0 in
  (* a variable nothing binds gets a slot nothing binds: a wildcard *)
  let obj_slot objs x =
    match List.assoc_opt x objs with Some s -> s | None -> fresh n_objs
  in
  let term objs vals = function
    | Const v ->
        let c = Columns.cells 1 in
        Columns.set c 0 ~intern v;
        Konst c
    | Attr_var y -> (
        match List.assoc_opt y vals with Some s -> Slot s | None -> Unbound y)
    | Obj_attr (q, x) -> (
        match obj_col q with Some c -> Obj (c, obj_slot objs x) | None -> Absent)
    | Seg_attr q -> (
        match seg_col q with Some c -> Seg c | None -> Absent)
  in
  (* an atom's code, and where it can score other than its [idle] *)
  let never _ = false in
  let atom objs vals a =
    let w = Weights.atom_weight cfg.weights a in
    let w0 = w *. 0. and w1 = w *. 1. in
    let varying code = (code, None, w0) in
    match a with
    | True -> (Fixed w1, Some never, w1)
    | False -> (Fixed w0, Some never, w0)
    | Present x -> varying (Present { s = obj_slot objs x; w0; w1 })
    | Rel (name, args) ->
        let slots = Array.of_list (List.map (obj_slot objs) args) in
        let rel = Option.get relations and id = intern name in
        let derive = Spatial.derivation name in
        let test = related rel objects ~id ~derive slots in
        (* a relationship that cannot be derived holds only where one
           with its name is stored *)
        let live =
          match derive with
          | Some _ -> None
          | None ->
              let { Columns.roff; rname; _ } = rel in
              Some (fun seg -> names rname id roff.(seg - 1) roff.(seg))
        in
        (Related { test; w0; w1 }, live, w0)
    | Cmp (cmp, t1, t2) -> (
        match type_query cmp t1 t2 with
        | Some (x, asked) ->
            (* every type of the level, credited once *)
            let credits =
              Array.make (Array.fold_left max (-1) objects.types + 1) 0.
            in
            Array.iter
              (fun found ->
                credits.(found) <-
                  w
                  *. Taxonomy.similarity cfg.taxonomy ~asked
                       ~found:(Columns.name cols found))
              objects.types;
            varying
              (Type_credit
                 { s = obj_slot objs x; credits; otype = objects.otype; w0 })
        | None ->
            let e1 = term objs vals t1 in
            let e2 = term objs vals t2 in
            varying (Compare { cmp; e1; e2; w0; w1 }))
  in
  let rec go objs vals f =
    let reg = fresh n_regs in
    match f with
    | Atom a ->
        let a, live, idle = atom objs vals a in
        let run seg env = atom_into a reg seg env in
        { reg; run; atoms = `One a; live; idle }
    | And (f, g) ->
        let nf = go objs vals f in
        let ng = go objs vals g in
        let run seg env =
          let x = node_score nf seg env in
          let y = node_score ng seg env in
          env.acc.(reg) <- x +. y
        in
        let atoms =
          match (nf.atoms, ng.atoms) with
          | `One a, `One b -> `Two (a, nf.reg, b, ng.reg)
          | _, _ -> `Tree
        in
        let live =
          match (nf.live, ng.live) with
          | Some lf, Some lg -> Some (fun seg -> lf seg || lg seg)
          | _, _ -> None
        in
        { reg; run; atoms; live; idle = nf.idle +. ng.idle }
    | Exists (x, body) ->
        (* the best of the wildcard and of every object present here,
           folded in the interpreter's order *)
        let s = fresh n_objs in
        let body = go ((x, s) :: objs) vals body in
        let { Columns.off; oid; first; _ } = objects in
        let witnesses seg env =
          env.bound.(s) <- false;
          env.pos.(s) <- -1;
          env.acc.(reg) <- fmax 0. (node_score body seg env);
          env.bound.(s) <- true;
          for p = off.(seg - 1) to off.(seg) - 1 do
            env.oids.(s) <- oid.(p);
            env.pos.(s) <- first.(p);
            env.acc.(reg) <- fmax env.acc.(reg) (node_score body seg env)
          done
        in
        (* where the body idles, every witness scores its [idle], and
           fmax folds any number of them to [fmax 0. idle] *)
        let idle = fmax 0. body.idle in
        let run =
          match body.live with
          | Some live ->
              fun seg env ->
                if live seg then witnesses seg env else env.acc.(reg) <- idle
          | None -> witnesses
        in
        { reg; run; atoms = `Tree; live = body.live; idle }
    | Freeze { var; attr; obj; body } ->
        let value =
          term objs vals
            (match obj with Some x -> Obj_attr (attr, x) | None -> Seg_attr attr)
        in
        let s = fresh n_vals in
        let body = go objs ((var, s) :: vals) body in
        (* an undefined attribute function fails the freeze *)
        let run seg env =
          let i = locate value seg env in
          if i < 0 then env.acc.(reg) <- 0.
          else begin
            Columns.blit (column value env) i env.vals s;
            env.acc.(reg) <- node_score body seg env
          end
        in
        { reg; run; atoms = `Tree; live = None; idle = 0. }
    | (Or _ | Not _ | Next _ | Until _ | Eventually _ | At_level _) as f ->
        unsupported "cannot score %s" (Htl.Pretty.to_string f)
  in
  let objs = List.map (fun x -> (x, fresh n_objs)) obj_vars in
  let vals = List.map (fun y -> (y, fresh n_vals)) attr_vars in
  let root = go objs vals f in
  {
    n_free = List.length obj_vars;
    n_objs = !n_objs;
    n_vals = !n_vals;
    n_regs = !n_regs;
    root = root.reg;
    objects;
    run = root.run;
    term = term objs [];
    intern;
  }

(* A fresh environment for [c], its free slots bound from [objs] and
   [vals] (in [obj_vars] / [attr_vars] order; [None] leaves a slot
   wildcarded / undefined), with room for [own] located own points.
   Scoring writes binder slots, so every scan — and under the pool
   every chunk — owns one. *)
let new_slots ?(own = 0) c ~objs ~vals =
  let env =
    {
      bound = Array.make c.n_objs false;
      oids = Array.make c.n_objs 0;
      pos = Array.make c.n_objs (-1);
      vals = Columns.cells c.n_vals;
      acc = Array.make c.n_regs 0.;
      own = Array.make own (-1);
    }
  in
  List.iteri
    (fun i -> function
      | Some oid ->
          env.bound.(i) <- true;
          env.oids.(i) <- oid
      | None -> ())
    objs;
  List.iteri
    (fun j -> function
      | Some v -> Columns.set env.vals j ~intern:c.intern v
      | None -> ())
    vals;
  env

(* Position the free object slots at segment [seg]; [c.run seg] then
   scores it into register [c.root]. *)
let[@inline] locate_free c seg env =
  let { Columns.off; oid; _ } = c.objects in
  for i = 0 to c.n_free - 1 do
    env.pos.(i) <-
      (if env.bound.(i) then find_oid oid env.oids.(i) off.(seg - 1) off.(seg)
       else -1)
  done

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

(* a comparison term [point] of free attribute variable [var]: [y_atoms]
   admits no attribute variable there, so it reads a column or a
   constant *)
type own = { var : int; point : term }

(* value tuples [a] and [b] (one cell per variable) are in one own
   class: alike with every own point from [k] on that [env.own] located
   at this segment (an undefined one, -1, compares with nothing) *)
let rec same_class owns env (a : Columns.cells) (b : Columns.cells) k =
  k = Array.length owns
  || (let i = env.own.(k) in
      i < 0
      ||
      let { var = j; point } = owns.(k) in
      let p = column point env in
      order a j p i = order b j p i && equal a j p i = equal b j p i)
     && same_class owns env a b (k + 1)

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

(* The candidates of a bound row: where a bound object appears, and
   where a relationship names it — an object bound but absent still
   matches a stored relationship, where the wildcard matches none. *)
let bound_candidates idx cols ~relations bound =
  List.fold_left
    (fun acc (_, oid) ->
      let acc = Pruning.union acc (Index.segments_of_object idx oid) in
      if relations then Pruning.union acc (Columns.segments_naming cols oid)
      else acc)
    [||] bound

(* the index of [id] in the ascending [ids] between [lo] and [hi], or -1 *)
let rec position ids id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    if ids.(mid) < id then position ids id (mid + 1) hi
    else if ids.(mid) > id then position ids id lo mid
    else mid

(* Candidate pruning pays for itself only when it leaves out enough of
   the level: a candidate scan costs ~1.5 times a full scan per segment
   (base scores found by binary search, lists built by overlay).  Past
   this share of the level the full scan is at least as fast
   (EXPERIMENTS.md, "The columnar scorer"). *)
let full_scan_share = 0.65

let eval ?(config = default_config) ?pool ?tracer ?metrics ?stats ?index
    ?(domains = []) store ~level f =
  validate f;
  let max_total = Weights.total config.weights f in
  let obj_vars = free_obj_vars f in
  let attr_vars = free_attr_vars f in
  let idx = index_for ?metrics ?index store ~level in
  let n = Index.segment_count idx in
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
     means the plan degenerated to the whole level, or left too little
     of it out to pay — keep the plain scan.  The plan only depends on
     the formula shape (attribute variables are value-independent), so
     one candidate array serves every region combination's base scan. *)
  let pruned =
    if config.prune then
      match Pruning.candidates ~taxonomy:config.taxonomy idx (Pruning.plan f) with
      | Some c
        when float_of_int (Array.length c) >= full_scan_share *. float_of_int n ->
          None
      | candidates -> candidates
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
  let cols = Index.columns idx store in
  let scorer = compile config idx store ~obj_vars ~attr_vars f in
  let root = scorer.root in
  (* each free attribute variable's comparison terms over the free
     object slots; forced after [regions] has vetted them *)
  let owns =
    lazy
      (Array.of_list
         (List.concat
            (List.mapi
               (fun j y ->
                 List.map
                   (fun (_, t) -> { var = j; point = scorer.term t })
                   (y_atoms f y))
               attr_vars)))
  in
  (* Segment [id] at every representative tuple of [reps], in order,
     its score at [reps.(r)] going to [out.(r).(pos)]: a tuple in the
     previous tuple's own class copies its score, any other is scored.
     Region tuples come in region order, so for a single variable a
     class is one run of them.  Answers the number of scorer calls.
     (Without attribute variables there is one tuple, the empty one,
     and [scan] scores it directly.) *)
  let no_attr_vars = attr_vars = [] in
  let n_vars = List.length attr_vars in
  let sweep env id (reps : Columns.cells array) out pos =
    locate_free scorer id env;
    let owns = Lazy.force owns in
    for k = 0 to Array.length owns - 1 do
      env.own.(k) <- locate owns.(k).point id env
    done;
    let calls = ref 0 in
    for r = 0 to Array.length reps - 1 do
      let rep = reps.(r) in
      if r > 0 && same_class owns env reps.(r - 1) rep 0 then
        out.(r).(pos) <- out.(r - 1).(pos)
      else begin
        for j = 0 to n_vars - 1 do
          Columns.blit rep j env.vals j
        done;
        scorer.run id env;
        out.(r).(pos) <- env.acc.(root);
        incr calls
      end
    done;
    !calls
  in
  (* [scan ~objs ids count reps out] sweeps segment [ids.(k)] (k + 1
     when [ids] is [None]) into [out.(r).(k)] for every k below
     [count].  Scoring reads the columns, taxonomy and weights only and
     writes its own environment, so the range chunks across the pool
     freely, one environment per chunk, each writing its own slots of
     [out]. *)
  let scan ~objs ids count reps out =
    let own = Array.length (Lazy.force owns) in
    let run ~lo ~hi =
      let env = new_slots ~own scorer ~objs ~vals:[] in
      if no_attr_vars then begin
        let out = out.(0) in
        for k = lo to hi do
          let id = match ids with Some c -> c.(k) | None -> k + 1 in
          locate_free scorer id env;
          scorer.run id env;
          out.(k) <- env.acc.(root)
        done;
        scanned (hi - lo + 1)
      end
      else begin
        let calls = ref 0 in
        for k = lo to hi do
          let id = match ids with Some c -> c.(k) | None -> k + 1 in
          calls := !calls + sweep env id reps out k
        done;
        scanned !calls
      end
    in
    match pool with
    | Some p -> Parallel.Pool.iter_chunks p count run
    | None -> if count > 0 then run ~lo:0 ~hi:(count - 1)
  in
  let cells_of (rep : Value.t array) =
    let c = Columns.cells n_vars in
    Array.iteri (fun j v -> Columns.set c j ~intern:scorer.intern v) rep;
    c
  in
  let wildcards = List.map (fun _ -> None) obj_vars in
  (* Base rows (every object variable wildcarded) per representative
     tuple: the scores of the base candidates, and their list when a row
     needs it. *)
  let base_count = match pruned with Some c -> Array.length c | None -> n in
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
    let cells = Array.map cells_of reps in
    scan ~objs:wildcards pruned base_count cells scores;
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
      let candidates =
        bound_candidates idx cols ~relations:(reads_relations f) bound
      in
      let m = Array.length candidates in
      let values = Array.map (fun _ -> Array.make m 0.) reps in
      let cells = Array.map cells_of reps in
      scan ~objs:(List.map snd combo) (Some candidates) m cells values;
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
  if Index.segment_count idx < Store.count_at store ~level then
    invalid_arg "Picture.Retrieval.scorer: index behind the store";
  let c =
    compile config idx store ~obj_vars:(List.map fst env)
      ~attr_vars:(List.map fst attrs) f
  in
  let slots =
    new_slots c ~objs:(List.map (fun (_, o) -> Some o) env) ~vals:(List.map snd attrs)
  in
  fun ~id ->
    locate_free c id slots;
    c.run id slots;
    slots.acc.(c.root)

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
