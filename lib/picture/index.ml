module Value = Metadata.Value

type points = {
  ints : int list;
  strs : string list;
  bad : [ `Float | `Bool ] option;
}

let no_points = { ints = []; strs = []; bad = None }

(* Posting key for attribute values.  [Value.equal] coerces Int/Float
   when numerically equal, so both map onto [Knum]; -0. folds onto 0.
   (they hash differently but compare equal); NaN is not indexable
   because it compares equal to nothing. *)
type vkey = Knum of float | Kstr of string | Kbool of bool

let key_of_value = function
  | Value.Int n -> Some (Knum (float_of_int n))
  | Value.Float f ->
      if Float.is_nan f then None else Some (Knum (if f = 0. then 0. else f))
  | Value.Str s -> Some (Kstr s)
  | Value.Bool b -> Some (Kbool b)

(* The memoised frozen-attribute values: one row per (object, value),
   [None] for a segment attribute, with the spans where it holds. *)
type value_row = {
  oid : int option;
  value : Simlist.Range.value;
  spans : Simlist.Interval.t list;
}

type frozen_values = (value_row list, [ `Float of int | `Bool ]) result

type t = {
  level : int;
  segment_count : int;
  by_object : (int, int array) Hashtbl.t;
  by_type : (string, int array) Hashtbl.t;
  by_relationship : (string, int array) Hashtbl.t;
  with_objects : int array;
  by_seg_attr : (string, int array) Hashtbl.t;
  by_seg_attr_value : (string * vkey, int array) Hashtbl.t;
  by_obj_attr : (string, int array) Hashtbl.t;
  by_obj_attr_value : (string * vkey, int array) Hashtbl.t;
  seg_points : (string, points) Hashtbl.t;
  obj_points : (string * int, points) Hashtbl.t;
  objects : int list;
  types : string list;
  frozen : (string * bool, frozen_values) Hashtbl.t;
      (* value tables by (attribute, of an object?), filled on demand *)
  mutable columns : Columns.t option;
      (* the columnar view, created on first demand *)
  lock : Mutex.t;  (* guards [frozen] and [columns]; neither is dumped *)
}

(* Build-time accumulators: postings as reversed lists with head dedup
   (segments are scanned in increasing id order), value points as
   reversed raw lists plus the first offending non-indexable kind in
   scan order (so the hoisted freeze-region pass reports the same error
   the per-eval scan used to). *)

let add_posting tbl key seg =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  match prev with
  | s :: _ when s = seg -> ()
  | _ -> Hashtbl.replace tbl key (seg :: prev)

type points_acc = {
  mutable p_ints : int list;
  mutable p_strs : string list;
  mutable p_bad : [ `Float | `Bool ] option;
}

let add_point tbl key v =
  let acc =
    match Hashtbl.find_opt tbl key with
    | Some acc -> acc
    | None ->
        let acc = { p_ints = []; p_strs = []; p_bad = None } in
        Hashtbl.add tbl key acc;
        acc
  in
  match v with
  | Value.Int k -> acc.p_ints <- k :: acc.p_ints
  | Value.Str s -> acc.p_strs <- s :: acc.p_strs
  | Value.Float _ -> if acc.p_bad = None then acc.p_bad <- Some `Float
  | Value.Bool _ -> if acc.p_bad = None then acc.p_bad <- Some `Bool

let finalize_postings tbl =
  let out = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
  Hashtbl.iter
    (fun k segs -> Hashtbl.replace out k (Array.of_list (List.rev segs)))
    tbl;
  out

let finalize_points tbl =
  let out = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
  Hashtbl.iter
    (fun k acc ->
      Hashtbl.replace out k
        {
          ints = List.sort_uniq compare acc.p_ints;
          strs = List.sort_uniq compare acc.p_strs;
          bad = acc.p_bad;
        })
    tbl;
  out

(* One scan over ids [lo..hi] of a level, accumulating every posting
   family.  [build] runs it over the whole level; [build_delta] over the
   appended tail only (appended ids are greater than every existing id,
   so the per-key posting arrays of a delta sort strictly after the
   finalized ones and {!merge} can concatenate). *)
let build_over store ~level ~lo ~hi =
  let by_object = Hashtbl.create 64 in
  let by_type = Hashtbl.create 64 in
  let by_relationship = Hashtbl.create 16 in
  let with_objects = Hashtbl.create 64 in
  let by_seg_attr = Hashtbl.create 16 in
  let by_seg_attr_value = Hashtbl.create 64 in
  let by_obj_attr = Hashtbl.create 16 in
  let by_obj_attr_value = Hashtbl.create 64 in
  let seg_points = Hashtbl.create 16 in
  let obj_points = Hashtbl.create 64 in
  for id = lo to hi do
    let meta = Video_model.Store.meta store ~level ~id in
    List.iter
      (fun (o : Metadata.Entity.t) ->
        add_posting by_object o.id id;
        add_posting by_type o.otype id;
        add_posting with_objects () id;
        (* [Entity.attr] exposes "type" and "id" as virtual attributes;
           index them alongside the stored ones so value postings and
           freeze points agree with the evaluator. *)
        List.iter
          (fun (name, v) ->
            add_posting by_obj_attr name id;
            (match key_of_value v with
            | Some k -> add_posting by_obj_attr_value (name, k) id
            | None -> ());
            add_point obj_points (name, o.id) v)
          (("type", Value.Str o.otype) :: ("id", Value.Int o.id) :: o.attrs))
      meta.Metadata.Seg_meta.objects;
    List.iter
      (fun (r : Metadata.Relationship.t) ->
        add_posting by_relationship r.name id)
      meta.Metadata.Seg_meta.relationships;
    List.iter
      (fun (name, v) ->
        add_posting by_seg_attr name id;
        (match key_of_value v with
        | Some k -> add_posting by_seg_attr_value (name, k) id
        | None -> ());
        add_point seg_points name v)
      meta.Metadata.Seg_meta.attrs
  done;
  let objects =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_object [])
  in
  let types =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_type [])
  in
  {
    level;
    segment_count = hi;
    by_object = finalize_postings by_object;
    by_type = finalize_postings by_type;
    by_relationship = finalize_postings by_relationship;
    with_objects =
      (match Hashtbl.find_opt with_objects () with
      | Some segs -> Array.of_list (List.rev segs)
      | None -> [||]);
    by_seg_attr = finalize_postings by_seg_attr;
    by_seg_attr_value = finalize_postings by_seg_attr_value;
    by_obj_attr = finalize_postings by_obj_attr;
    by_obj_attr_value = finalize_postings by_obj_attr_value;
    seg_points = finalize_points seg_points;
    obj_points = finalize_points obj_points;
    objects;
    types;
    frozen = Hashtbl.create 4;
    columns = None;
    lock = Mutex.create ();
  }

let build ?metrics store ~level =
  (match metrics with
  | Some m -> Obs.Metrics.incr m "picture.index.builds"
  | None -> ());
  build_over store ~level ~lo:1
    ~hi:(Video_model.Store.count_at store ~level)

let build_delta store ~level ~lo =
  let hi = Video_model.Store.count_at store ~level in
  if lo < 1 || lo > hi then
    invalid_arg
      (Printf.sprintf "Index.build_delta: lo %d out of range 1..%d" lo hi);
  build_over store ~level ~lo ~hi

(* Merging a delta built over the appended tail into a finalized index.
   Neither input is mutated: other threads may hold the base (the
   registry hands indexes out without copying), and snapshot dumps share
   posting arrays.  Delta ids are all greater than [base.segment_count],
   so concatenation preserves the ascending, duplicate-free invariant of
   every posting family. *)

let merge_postings base delta =
  let out = Hashtbl.copy base in
  Hashtbl.iter
    (fun k arr ->
      match Hashtbl.find_opt out k with
      | None -> Hashtbl.replace out k arr
      | Some old -> Hashtbl.replace out k (Array.append old arr))
    delta;
  out

let merge_points base delta =
  let out = Hashtbl.copy base in
  Hashtbl.iter
    (fun k (p : points) ->
      match Hashtbl.find_opt out k with
      | None -> Hashtbl.replace out k p
      | Some (old : points) ->
          Hashtbl.replace out k
            {
              ints = List.sort_uniq compare (old.ints @ p.ints);
              strs = List.sort_uniq compare (old.strs @ p.strs);
              (* the base's offender came first in scan order *)
              bad = (match old.bad with Some _ -> old.bad | None -> p.bad);
            })
    delta;
  out

let merge base delta =
  if base.level <> delta.level then
    invalid_arg
      (Printf.sprintf "Index.merge: levels disagree (%d vs %d)" base.level
         delta.level);
  if delta.segment_count < base.segment_count then
    invalid_arg "Index.merge: delta covers fewer segments than the base";
  {
    level = base.level;
    segment_count = delta.segment_count;
    by_object = merge_postings base.by_object delta.by_object;
    by_type = merge_postings base.by_type delta.by_type;
    by_relationship = merge_postings base.by_relationship delta.by_relationship;
    with_objects = Array.append base.with_objects delta.with_objects;
    by_seg_attr = merge_postings base.by_seg_attr delta.by_seg_attr;
    by_seg_attr_value =
      merge_postings base.by_seg_attr_value delta.by_seg_attr_value;
    by_obj_attr = merge_postings base.by_obj_attr delta.by_obj_attr;
    by_obj_attr_value =
      merge_postings base.by_obj_attr_value delta.by_obj_attr_value;
    seg_points = merge_points base.seg_points delta.seg_points;
    obj_points = merge_points base.obj_points delta.obj_points;
    objects = List.sort_uniq compare (base.objects @ delta.objects);
    types = List.sort_uniq compare (base.types @ delta.types);
    frozen = Hashtbl.create 4;
    (* the columns the base has built, extended over the appended ids as
       the posting arrays are *)
    columns =
      Option.map
        (fun c -> Columns.extend c ~segments:delta.segment_count)
        (Mutex.protect base.lock (fun () -> base.columns));
    lock = Mutex.create ();
  }

let postings tbl key =
  match Hashtbl.find tbl key with p -> p | exception Not_found -> [||]

let segments_of_object t oid = postings t.by_object oid
let segments_of_type t name = postings t.by_type name
let segments_of_relationship t name = postings t.by_relationship name
let segments_with_objects t = t.with_objects
let segments_with_seg_attr t name = postings t.by_seg_attr name

let segments_with_seg_attr_value t name v =
  match key_of_value v with
  | None -> [||]
  | Some k -> postings t.by_seg_attr_value (name, k)

let segments_with_obj_attr t name = postings t.by_obj_attr name

let segments_with_obj_attr_value t name v =
  match key_of_value v with
  | None -> [||]
  | Some k -> postings t.by_obj_attr_value (name, k)

let seg_attr_points t name =
  Option.value ~default:no_points (Hashtbl.find_opt t.seg_points name)

let obj_attr_points t name ~oid =
  Option.value ~default:no_points (Hashtbl.find_opt t.obj_points (name, oid))

let objects_at_level t = t.objects
let types_at_level t = t.types
let level t = t.level
let segment_count t = t.segment_count

let columns t store =
  Mutex.protect t.lock (fun () ->
      match t.columns with
      | Some c -> c
      | None ->
          let c = Columns.create store ~level:t.level ~segments:t.segment_count in
          t.columns <- Some c;
          c)

(* --- frozen-attribute values ----------------------------------------------

   A freeze quantifier's value table (§3.3) over the level: a segment
   attribute is read at every segment, an object attribute at the
   segments holding each object, and the segments holding one value are
   grouped into maximal spans.  Each table is built on first demand and
   kept with the index; two racing first demands may both build it, and
   both results are equal. *)

exception Not_frozen of [ `Float of int | `Bool ]

(* the rows of one binding, [ids] ascending; the scan runs from the
   last id down, so a bad value is reported at the highest id holding
   one *)
let frozen_rows store ~level ~attr ~oid ids =
  let values = ref [] in
  for k = Array.length ids - 1 downto 0 do
    let id = ids.(k) in
    let meta = Video_model.Store.meta store ~level ~id in
    match
      match oid with
      | Some o -> Metadata.Seg_meta.object_attr meta o attr
      | None -> Metadata.Seg_meta.attr meta attr
    with
    | None -> ()
    | Some (Value.Int k) -> values := (id, Simlist.Range.Vint k) :: !values
    | Some (Value.Str s) -> values := (id, Simlist.Range.Vstr s) :: !values
    | Some (Value.Float _) -> raise (Not_frozen (`Float id))
    | Some (Value.Bool _) -> raise (Not_frozen `Bool)
  done;
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (id, v) ->
      let spans = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
      let spans =
        match spans with
        | last :: rest when Simlist.Interval.hi last + 1 = id ->
            Simlist.Interval.make (Simlist.Interval.lo last) id :: rest
        | _ -> Simlist.Interval.point id :: spans
      in
      Hashtbl.replace tbl v spans)
    !values;
  Hashtbl.fold
    (fun value spans acc -> { oid; value; spans = List.rev spans } :: acc)
    tbl []

let frozen_values t store ~attr ~objects =
  let key = (attr, objects) in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.frozen key) with
  | Some values -> values
  | None ->
      let level = t.level in
      let values =
        match
          if objects then
            List.concat_map
              (fun oid ->
                frozen_rows store ~level ~attr ~oid:(Some oid)
                  (segments_of_object t oid))
              t.objects
          else
            frozen_rows store ~level ~attr ~oid:None
              (Array.init t.segment_count (fun i -> i + 1))
        with
        | rows -> Ok rows
        | exception Not_frozen bad -> Error bad
      in
      Mutex.protect t.lock (fun () -> Hashtbl.replace t.frozen key values);
      values

(* --- serialization-friendly view ----------------------------------------

   A dump flattens every hashtable into a sorted association list, so a
   snapshot of the same index is byte-identical run to run (hashtable
   fold order is not deterministic).  [undump] rebuilds the tables; the
   posting arrays are shared, not copied — both sides treat them as
   immutable. *)

type dump = {
  d_level : int;
  d_segments : int;
  d_by_object : (int * int array) list;
  d_by_type : (string * int array) list;
  d_by_relationship : (string * int array) list;
  d_with_objects : int array;
  d_by_seg_attr : (string * int array) list;
  d_by_seg_attr_value : ((string * vkey) * int array) list;
  d_by_obj_attr : (string * int array) list;
  d_by_obj_attr_value : ((string * vkey) * int array) list;
  d_seg_points : (string * points) list;
  d_obj_points : ((string * int) * points) list;
  d_objects : int list;
  d_types : string list;
}

let sorted_bindings tbl =
  List.sort
    (fun (k1, _) (k2, _) -> compare k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let dump t =
  {
    d_level = t.level;
    d_segments = t.segment_count;
    d_by_object = sorted_bindings t.by_object;
    d_by_type = sorted_bindings t.by_type;
    d_by_relationship = sorted_bindings t.by_relationship;
    d_with_objects = t.with_objects;
    d_by_seg_attr = sorted_bindings t.by_seg_attr;
    d_by_seg_attr_value = sorted_bindings t.by_seg_attr_value;
    d_by_obj_attr = sorted_bindings t.by_obj_attr;
    d_by_obj_attr_value = sorted_bindings t.by_obj_attr_value;
    d_seg_points = sorted_bindings t.seg_points;
    d_obj_points = sorted_bindings t.obj_points;
    d_objects = t.objects;
    d_types = t.types;
  }

let table_of bindings =
  let tbl = Hashtbl.create (max 16 (List.length bindings)) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings;
  tbl

let undump d =
  {
    level = d.d_level;
    segment_count = d.d_segments;
    by_object = table_of d.d_by_object;
    by_type = table_of d.d_by_type;
    by_relationship = table_of d.d_by_relationship;
    with_objects = d.d_with_objects;
    by_seg_attr = table_of d.d_by_seg_attr;
    by_seg_attr_value = table_of d.d_by_seg_attr_value;
    by_obj_attr = table_of d.d_by_obj_attr;
    by_obj_attr_value = table_of d.d_by_obj_attr_value;
    seg_points = table_of d.d_seg_points;
    obj_points = table_of d.d_obj_points;
    objects = d.d_objects;
    types = d.d_types;
    frozen = Hashtbl.create 4;
    columns = None;
    lock = Mutex.create ();
  }

module Registry = struct
  type index = t

  type nonrec t = {
    mutex : Mutex.t;
    mutable version : int;
    tbl : (int, index) Hashtbl.t;
  }

  let create () = { mutex = Mutex.create (); version = -1; tbl = Hashtbl.create 4 }

  (* Version catch-up is per level.  An edit at level [l] can change any
     posting at that level, so its cached index is dropped (rebuilt on
     next demand); other levels are untouched.  An append never changes
     an existing id's meta-data, so every cached level that grew gets a
     delta built over its appended tail and merged — counted as
     [picture.index.delta_merges], with [picture.index.builds] staying
     flat.  Past the change-log horizon we can no longer tell what
     happened and reset everything. *)
  let catch_up r ?metrics store =
    match Video_model.Store.changes_since store ~since:r.version with
    | None -> Hashtbl.reset r.tbl
    | Some changes ->
        List.iter
          (fun (c : Video_model.Store.change) ->
            match c with
            | Edited { level = lm; _ } -> Hashtbl.remove r.tbl lm
            | Appended _ -> ())
          changes;
        let cached = Hashtbl.fold (fun l idx acc -> (l, idx) :: acc) r.tbl [] in
        List.iter
          (fun (l, (idx : index)) ->
            let n = Video_model.Store.count_at store ~level:l in
            if idx.segment_count < n then begin
              let delta = build_delta store ~level:l ~lo:(idx.segment_count + 1) in
              Hashtbl.replace r.tbl l (merge idx delta);
              match metrics with
              | Some m -> Obs.Metrics.incr m "picture.index.delta_merges"
              | None -> ()
            end)
          cached

  let get r ?metrics store ~level =
    Mutex.protect r.mutex (fun () ->
        let v = Video_model.Store.version store in
        if v <> r.version then begin
          catch_up r ?metrics store;
          r.version <- v
        end;
        match Hashtbl.find_opt r.tbl level with
        | Some idx ->
            (match metrics with
            | Some m -> Obs.Metrics.incr m "picture.index.registry_hits"
            | None -> ());
            idx
        | None ->
            let idx = build ?metrics store ~level in
            Hashtbl.add r.tbl level idx;
            idx)

  let preload r ~version indexes =
    Mutex.protect r.mutex (fun () ->
        Hashtbl.reset r.tbl;
        r.version <- version;
        List.iter (fun (idx : index) -> Hashtbl.replace r.tbl idx.level idx) indexes)
end
