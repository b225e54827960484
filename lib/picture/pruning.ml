module Value = Metadata.Value

(* ---- sorted int array set operations ---- *)

(* First position in a.[lo..hi) whose value is >= x. *)
let lower_bound (a : int array) ~lo ~hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Galloping search: double the probe distance from [from] until the
   value at the probe is >= x, then binary-search the bracketed range.
   O(log d) where d is the distance to the answer, so intersecting a
   small array against a large one costs O(small * log large) total. *)
let gallop (a : int array) ~from x =
  let n = Array.length a in
  if from >= n || a.(from) >= x then from
  else begin
    let step = ref 1 in
    let prev = ref from in
    let probe = ref (from + 1) in
    while !probe < n && a.(!probe) < x do
      prev := !probe;
      step := !step * 2;
      probe := !probe + !step
    done;
    lower_bound a ~lo:(!prev + 1) ~hi:(min !probe n) x
  end

let intersect a b =
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let la = Array.length a in
  if la = 0 || Array.length b = 0 then [||]
  else begin
    let out = Array.make la 0 in
    let k = ref 0 in
    let j = ref 0 in
    for i = 0 to la - 1 do
      let x = a.(i) in
      j := gallop b ~from:!j x;
      if !j < Array.length b && b.(!j) = x then begin
        out.(!k) <- x;
        incr k;
        incr j
      end
    done;
    Array.sub out 0 !k
  end

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let k = ref 0 and i = ref 0 and j = ref 0 in
    let push x =
      if !k = 0 || out.(!k - 1) <> x then begin
        out.(!k) <- x;
        incr k
      end
    in
    while !i < la && !j < lb do
      if a.(!i) < b.(!j) then begin
        push a.(!i);
        incr i
      end
      else if a.(!i) > b.(!j) then begin
        push b.(!j);
        incr j
      end
      else begin
        push a.(!i);
        incr i;
        incr j
      end
    done;
    while !i < la do
      push a.(!i);
      incr i
    done;
    while !j < lb do
      push b.(!j);
      incr j
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

(* Union of the postings of every type at [idx]'s level that [asked]
   is compatible with.  Several postings merge in one pass: mark every
   id in a byte per segment, then collect the marks in order into one
   exact-size array.  Folding [union] instead copies the growing result
   once per posting.  Counting before marking keeps the scan free of
   intermediate lists. *)
let union_of_compatible ~taxonomy idx asked =
  let types = Index.types_at_level idx in
  let compatible found = Taxonomy.compatible taxonomy ~asked ~found in
  let count_compatible k t = if compatible t then k + 1 else k in
  match List.fold_left count_compatible 0 types with
  | 0 -> [||]
  | 1 -> Index.segments_of_type idx (List.find compatible types)
  | _ ->
      let n = Index.segment_count idx in
      let mark = Bytes.make (n + 1) '\000' in
      let count = ref 0 in
      let add id =
        if Bytes.get mark id = '\000' then begin
          Bytes.set mark id '\001';
          incr count
        end
      in
      List.iter
        (fun t ->
          if compatible t then Array.iter add (Index.segments_of_type idx t))
        types;
      let out = Array.make !count 0 in
      let k = ref 0 in
      for id = 1 to n do
        if Bytes.get mark id <> '\000' then begin
          out.(!k) <- id;
          incr k
        end
      done;
      out

(* ---- static candidate plans ---- *)

type plan =
  | All
  | Empty
  | Objects
  | Rel of string
  | Type_compat of string
  | Seg_attr_def of string
  | Seg_attr_eq of string * Value.t
  | Obj_attr_def of string
  | Obj_attr_eq of string * Value.t
  | Union of plan * plan
  | Inter of plan * plan

(* plans whose segments all hold an object: object, type and
   object-attribute postings are only ever made at segments with
   objects *)
let rec within_objects = function
  | Empty | Objects | Type_compat _ | Obj_attr_def _ | Obj_attr_eq _ -> true
  | Inter (a, b) -> within_objects a || within_objects b
  | Union (a, b) -> within_objects a && within_objects b
  | All | Rel _ | Seg_attr_def _ | Seg_attr_eq _ -> false

let union_plan a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Empty, p | p, Empty -> p
  | Objects, p when within_objects p -> Objects
  | p, Objects when within_objects p -> Objects
  | a, b -> Union (a, b)

let inter_plan a b =
  match (a, b) with
  | All, p | p, All -> p
  | Empty, _ | _, Empty -> Empty
  | a, b -> Inter (a, b)

(* The planner mirrors [Retrieval.score]'s zero cases.  A plan for [f]
   must cover the nonzero support {id | score f id <> 0}: under the
   weighted-sum semantics And takes the union of its children (partial
   credit — a segment matching either conjunct scores nonzero), Exists
   maxes over witnesses so its body is planned with the variable bound
   ([`Local]), and a free/unscoped object variable ([`Wild]) makes the
   atom score 0 everywhere.  Support only shrinks when a variable goes
   from Local to Wild and plans compose monotonically, so planning with
   the binder list is sound for every witness choice. *)

let local locals x = List.mem x locals

let term_defined ~locals = function
  | Htl.Ast.Const _ | Htl.Ast.Attr_var _ -> All
  | Htl.Ast.Seg_attr q -> Seg_attr_def q
  | Htl.Ast.Obj_attr (q, x) -> if local locals x then Obj_attr_def q else Empty

let cmp_plan ~locals cmp t1 t2 =
  match (cmp, t1, t2) with
  (* type queries get taxonomy-graded credit, not exact equality *)
  | Htl.Ast.Eq, Htl.Ast.Obj_attr ("type", x), Htl.Ast.Const (Value.Str t)
  | Htl.Ast.Eq, Htl.Ast.Const (Value.Str t), Htl.Ast.Obj_attr ("type", x) ->
      if local locals x then Type_compat t else Empty
  | _ -> (
      match (t1, t2) with
      | Htl.Ast.Const v1, Htl.Ast.Const v2 ->
          if Htl.Exact.eval_cmp cmp v1 v2 then All else Empty
      | _ -> (
          let default () =
            inter_plan (term_defined ~locals t1) (term_defined ~locals t2)
          in
          match (cmp, t1, t2) with
          | Htl.Ast.Eq, Htl.Ast.Const v, t | Htl.Ast.Eq, t, Htl.Ast.Const v
            -> (
              match t with
              | Htl.Ast.Seg_attr q -> Seg_attr_eq (q, v)
              | Htl.Ast.Obj_attr (q, x) ->
                  if local locals x then Obj_attr_eq (q, v) else Empty
              | Htl.Ast.Const _ | Htl.Ast.Attr_var _ -> default ())
          | _ -> default ()))

let atom_plan ~locals = function
  | Htl.Ast.True -> All
  | Htl.Ast.False -> Empty
  | Htl.Ast.Present x -> if local locals x then Objects else Empty
  | Htl.Ast.Rel (r, args) ->
      if List.exists (fun x -> not (local locals x)) args then Empty
      else if List.length args = 2 && List.mem r Spatial.derived then
        (* a derivable binary relation also holds wherever both objects
           carry bounding boxes, so the stored postings alone are not a
           cover — widen to every segment with objects *)
        union_plan (Rel r) Objects
      else Rel r
  | Htl.Ast.Cmp (cmp, t1, t2) -> cmp_plan ~locals cmp t1 t2

let rec plan_of ~locals = function
  | Htl.Ast.Atom a -> atom_plan ~locals a
  | Htl.Ast.And (f, g) -> union_plan (plan_of ~locals f) (plan_of ~locals g)
  | Htl.Ast.Exists (x, f) -> plan_of ~locals:(x :: locals) f
  | Htl.Ast.Freeze { var = _; attr; obj; body } ->
      let defined =
        match obj with
        | None -> Seg_attr_def attr
        | Some x -> if local locals x then Obj_attr_def attr else Empty
      in
      inter_plan defined (plan_of ~locals body)
  (* [Retrieval.validate] rejects the rest; All keeps the plan sound. *)
  | Htl.Ast.Or _ | Htl.Ast.Not _ | Htl.Ast.Next _ | Htl.Ast.Until _
  | Htl.Ast.Eventually _ | Htl.Ast.At_level _ ->
      All

let plan f = plan_of ~locals:[] f
let plan_under ~locals f = plan_of ~locals f
let is_all = function All -> true | _ -> false

let rec eval ~taxonomy idx = function
  | All ->
      (* callers guard on [is_all]; materialize honestly if they don't *)
      Array.init (Index.segment_count idx) (fun i -> i + 1)
  | Empty -> [||]
  | Objects -> Index.segments_with_objects idx
  | Rel r -> Index.segments_of_relationship idx r
  | Type_compat t -> union_of_compatible ~taxonomy idx t
  | Seg_attr_def q -> Index.segments_with_seg_attr idx q
  | Seg_attr_eq (q, v) -> Index.segments_with_seg_attr_value idx q v
  | Obj_attr_def q -> Index.segments_with_obj_attr idx q
  | Obj_attr_eq (q, v) -> Index.segments_with_obj_attr_value idx q v
  | Union (a, b) -> union (eval ~taxonomy idx a) (eval ~taxonomy idx b)
  | Inter (a, b) -> intersect (eval ~taxonomy idx a) (eval ~taxonomy idx b)

let candidates ~taxonomy idx p =
  if is_all p then None else Some (eval ~taxonomy idx p)

(* Cardinality upper bound for a plan without materializing it: leaves
   read posting-list lengths, Inter can keep at most its smaller side,
   Union at most the sum (capped at the level size).  Sound against
   [eval] because every bound over-approximates the set it mirrors. *)
let estimate ~taxonomy idx p =
  let n = Index.segment_count idx in
  let rec go = function
    | All -> n
    | Empty -> 0
    | Objects -> Array.length (Index.segments_with_objects idx)
    | Rel r -> Array.length (Index.segments_of_relationship idx r)
    | Type_compat t ->
        List.fold_left
          (fun acc found ->
            if Taxonomy.compatible taxonomy ~asked:t ~found then
              acc + Array.length (Index.segments_of_type idx found)
            else acc)
          0 (Index.types_at_level idx)
        |> min n
    | Seg_attr_def q -> Array.length (Index.segments_with_seg_attr idx q)
    | Seg_attr_eq (q, v) ->
        Array.length (Index.segments_with_seg_attr_value idx q v)
    | Obj_attr_def q -> Array.length (Index.segments_with_obj_attr idx q)
    | Obj_attr_eq (q, v) ->
        Array.length (Index.segments_with_obj_attr_value idx q v)
    | Union (a, b) -> min n (go a + go b)
    | Inter (a, b) -> min (go a) (go b)
  in
  go p

let rec describe_plan = function
  | All -> "all"
  | Empty -> "none"
  | Objects -> "objects"
  | Rel r -> "rel:" ^ r
  | Type_compat t -> "type~" ^ t
  | Seg_attr_def q -> "seg." ^ q
  | Seg_attr_eq (q, v) -> Printf.sprintf "seg.%s=%s" q (Value.to_string v)
  | Obj_attr_def q -> "attr:" ^ q
  | Obj_attr_eq (q, v) -> Printf.sprintf "%s=%s" q (Value.to_string v)
  | Union (a, b) -> Printf.sprintf "(%s | %s)" (describe_plan a) (describe_plan b)
  | Inter (a, b) -> Printf.sprintf "(%s & %s)" (describe_plan a) (describe_plan b)

let describe = function All -> None | p -> Some (describe_plan p)
