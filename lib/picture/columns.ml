module Value = Metadata.Value
module Entity = Metadata.Entity
module Store = Video_model.Store

type cells = { tags : Bytes.t; ints : int array; mutable nums : float array }

let tag_absent = '\000'
let tag_int = '\001'
let tag_float = '\002'
let tag_str = '\003'
let tag_bool = '\004'

type objects = {
  off : int array;
  oid : int array;
  first : int array;
  otype : int array;
  bbox : Metadata.Bbox.t option array;
  types : int array;
}

type relations = {
  roff : int array;
  rname : int array;
  aoff : int array;
  args : int array;
}

(* Every part is built on first demand under [lock] and immutable once
   published, so scorers read the arrays without locking.  Interning
   happens under the lock too: string ids are dense and only grow. *)
type t = {
  store : Store.t;
  level : int;
  segments : int;
  lock : Mutex.t;
  strings : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable objects : objects option;
  mutable relations : relations option;
  mutable naming : (int, int array) Hashtbl.t option;
  seg_attrs : (string, cells) Hashtbl.t;
  obj_attrs : (string, cells) Hashtbl.t;
}

let create store ~level ~segments =
  {
    store;
    level;
    segments;
    lock = Mutex.create ();
    strings = Hashtbl.create 64;
    names = Array.make 64 "";
    objects = None;
    relations = None;
    naming = None;
    seg_attrs = Hashtbl.create 8;
    obj_attrs = Hashtbl.create 8;
  }

(* [t.lock] held *)
let intern t s =
  match Hashtbl.find_opt t.strings s with
  | Some id -> id
  | None ->
      let id = Hashtbl.length t.strings in
      if id = Array.length t.names then begin
        let names = Array.make (2 * id) "" in
        Array.blit t.names 0 names 0 id;
        t.names <- names
      end;
      t.names.(id) <- s;
      Hashtbl.add t.strings s id;
      id

(* --- cells ---------------------------------------------------------------- *)

let cells n = { tags = Bytes.make n tag_absent; ints = Array.make n 0; nums = Array.make n 0. }

(* a column gets its float array at its first number *)
let column n = { tags = Bytes.make n tag_absent; ints = Array.make n 0; nums = [||] }

let nums c =
  if Array.length c.nums = 0 then c.nums <- Array.make (Bytes.length c.tags) 0.;
  c.nums

let set c i ~intern (v : Value.t) =
  match v with
  | Int n ->
      Bytes.set c.tags i tag_int;
      c.ints.(i) <- n;
      (nums c).(i) <- float_of_int n
  | Float f ->
      Bytes.set c.tags i tag_float;
      (nums c).(i) <- f
  | Str s ->
      Bytes.set c.tags i tag_str;
      c.ints.(i) <- intern s
  | Bool b ->
      Bytes.set c.tags i tag_bool;
      c.ints.(i) <- Bool.to_int b

let blit src i dst j =
  Bytes.set dst.tags j (Bytes.get src.tags i);
  dst.ints.(j) <- src.ints.(i);
  if Array.length src.nums > 0 then dst.nums.(j) <- src.nums.(i)

(* a column of [n] cells, the first [Bytes.length base.tags] copied from
   [base] *)
let extended base n =
  let c = column n in
  match base with
  | None -> c
  | Some b ->
      let m = Bytes.length b.tags in
      Bytes.blit b.tags 0 c.tags 0 m;
      Array.blit b.ints 0 c.ints 0 m;
      if Array.length b.nums > 0 then Array.blit b.nums 0 (nums c) 0 m;
      c

(* --- parts, each built over ids [lo .. hi] on top of a base covering
   ids [1 .. lo - 1] ------------------------------------------------------ *)

let metas t ~lo ~hi f =
  let nodes = Store.nodes_at t.store ~level:t.level in
  for id = lo to hi do
    f id nodes.(id - 1).Store.meta
  done

let grown base n ~len ~dummy =
  let a = Array.make n dummy in
  (match base with Some b -> Array.blit b 0 a 0 len | None -> ());
  a

let build_objects t ~base ~lo ~hi =
  let m0 = match base with Some b -> Array.length b.oid | None -> 0 in
  let m = ref m0 in
  metas t ~lo ~hi (fun _ (meta : Metadata.Seg_meta.t) ->
      m := !m + List.length meta.objects);
  let m = !m in
  let field f = Option.map f base in
  let off = grown (field (fun b -> b.off)) (hi + 1) ~len:lo ~dummy:0 in
  let oid = grown (field (fun b -> b.oid)) m ~len:m0 ~dummy:0 in
  let first = grown (field (fun b -> b.first)) m ~len:m0 ~dummy:0 in
  let otype = grown (field (fun b -> b.otype)) m ~len:m0 ~dummy:0 in
  let bbox = grown (field (fun b -> b.bbox)) m ~len:m0 ~dummy:None in
  let p = ref m0 in
  metas t ~lo ~hi (fun id (meta : Metadata.Seg_meta.t) ->
      let row = !p in
      List.iter
        (fun (o : Entity.t) ->
          let k = !p in
          oid.(k) <- o.id;
          otype.(k) <- intern t o.otype;
          bbox.(k) <- o.bbox;
          (* lookups by id find the row's first object with it *)
          let f = ref row in
          while oid.(!f) <> o.id do
            incr f
          done;
          first.(k) <- !f;
          incr p)
        meta.objects;
      off.(id) <- !p);
  let types = Array.of_list (List.sort_uniq compare (Array.to_list otype)) in
  { off; oid; first; otype; bbox; types }

let build_relations t ~base ~lo ~hi =
  let r0, a0 =
    match base with
    | Some b -> (Array.length b.rname, Array.length b.args)
    | None -> (0, 0)
  in
  let r = ref r0 and a = ref a0 in
  metas t ~lo ~hi (fun _ (meta : Metadata.Seg_meta.t) ->
      List.iter
        (fun (rel : Metadata.Relationship.t) ->
          incr r;
          a := !a + List.length rel.args)
        meta.relationships);
  let field f = Option.map f base in
  let roff = grown (field (fun b -> b.roff)) (hi + 1) ~len:lo ~dummy:0 in
  let rname = grown (field (fun b -> b.rname)) !r ~len:r0 ~dummy:0 in
  let aoff = grown (field (fun b -> b.aoff)) (!r + 1) ~len:(r0 + 1) ~dummy:0 in
  let args = grown (field (fun b -> b.args)) !a ~len:a0 ~dummy:0 in
  let r = ref r0 and a = ref a0 in
  metas t ~lo ~hi (fun id (meta : Metadata.Seg_meta.t) ->
      List.iter
        (fun (rel : Metadata.Relationship.t) ->
          rname.(!r) <- intern t rel.name;
          List.iter
            (fun x ->
              args.(!a) <- x;
              incr a)
            rel.args;
          incr r;
          aoff.(!r) <- !a)
        meta.relationships;
      roff.(id) <- !r);
  { roff; rname; aoff; args }

(* [intern t] behind a small cache of recent strings, slotted by length
   and first character: a column's strings are mostly a few values
   repeated, and a cache hit skips the table's hash *)
let interner t =
  let keys = Array.make 16 "" and ids = Array.make 16 (-1) in
  fun s ->
    let k = (String.length s + if s = "" then 0 else Char.code s.[0]) land 15 in
    if ids.(k) >= 0 && String.equal keys.(k) s then ids.(k)
    else begin
      let id = intern t s in
      keys.(k) <- s;
      ids.(k) <- id;
      id
    end

(* the first binding of [name], as [List.assoc_opt] finds it *)
let rec first_binding name = function
  | [] -> None
  | (k, v) :: tl -> if String.equal k name then Some v else first_binding name tl

(* a segment attribute at position [id - 1]; the first binding of a
   name wins, as in [Seg_meta.attr] *)
let build_seg_attr t name ~base ~lo ~hi =
  let c = extended base hi and intern = interner t in
  metas t ~lo ~hi (fun id (meta : Metadata.Seg_meta.t) ->
      match first_binding name meta.attrs with
      | Some v -> set c (id - 1) ~intern v
      | None -> ());
  c

(* an object attribute at the object's row position, read as
   [Entity.attr] reads it ("type" and "id" are virtual) *)
let build_obj_attr t (objs : objects) name ~base ~lo ~hi =
  let c = extended base (Array.length objs.oid) and intern = interner t in
  let p = ref objs.off.(lo - 1) in
  metas t ~lo ~hi (fun _ (meta : Metadata.Seg_meta.t) ->
      List.iter
        (fun (o : Entity.t) ->
          (match Entity.attr o name with
          | Some v -> set c !p ~intern v
          | None -> ());
          incr p)
        meta.objects);
  c

(* --- on-demand access --------------------------------------------------- *)

let locked t f = Mutex.protect t.lock f

let objects_locked t =
  match t.objects with
  | Some o -> o
  | None ->
      let o = build_objects t ~base:None ~lo:1 ~hi:t.segments in
      t.objects <- Some o;
      o

let objects t = locked t (fun () -> objects_locked t)

let relations_locked t =
  match t.relations with
  | Some r -> r
  | None ->
      let r = build_relations t ~base:None ~lo:1 ~hi:t.segments in
      t.relations <- Some r;
      r

let relations t = locked t (fun () -> relations_locked t)

(* every object id a relationship names, with the ascending segments
   that name it *)
let build_naming (r : relations) =
  let tbl = Hashtbl.create 16 in
  for id = Array.length r.roff - 1 downto 1 do
    for a = r.aoff.(r.roff.(id - 1)) to r.aoff.(r.roff.(id)) - 1 do
      let x = r.args.(a) in
      match Hashtbl.find_opt tbl x with
      | Some (s :: _) when s = id -> ()
      | Some segs -> Hashtbl.replace tbl x (id :: segs)
      | None -> Hashtbl.replace tbl x [ id ]
    done
  done;
  let out = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun x segs -> Hashtbl.replace out x (Array.of_list segs)) tbl;
  out

let segments_naming t oid =
  locked t (fun () ->
      let naming =
        match t.naming with
        | Some n -> n
        | None ->
            let n = build_naming (relations_locked t) in
            t.naming <- Some n;
            n
      in
      Option.value ~default:[||] (Hashtbl.find_opt naming oid))

let seg_attr t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.seg_attrs name with
      | Some c -> c
      | None ->
          let c = build_seg_attr t name ~base:None ~lo:1 ~hi:t.segments in
          Hashtbl.replace t.seg_attrs name c;
          c)

let obj_attr t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.obj_attrs name with
      | Some c -> c
      | None ->
          let objs = objects_locked t in
          let c = build_obj_attr t objs name ~base:None ~lo:1 ~hi:t.segments in
          Hashtbl.replace t.obj_attrs name c;
          c)

let attr_columns t =
  let names tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  locked t (fun () -> (names t.seg_attrs, names t.obj_attrs))

let interned t = locked t (fun () -> Hashtbl.length t.strings)
let lookup t s = locked t (fun () -> Hashtbl.find_opt t.strings s)
let name t id = locked t (fun () -> t.names.(id))

(* The view of ids [1 .. segments] from one of a prefix: the ids, every
   part already built, extended over the appended ids, sharing nothing
   mutable with [t]. *)
let extend t ~segments =
  if segments < t.segments then invalid_arg "Columns.extend: fewer segments";
  let u =
    locked t (fun () ->
        {
          t with
          segments;
          lock = Mutex.create ();
          strings = Hashtbl.copy t.strings;
          names = Array.copy t.names;
          naming = None;
          seg_attrs = Hashtbl.copy t.seg_attrs;
          obj_attrs = Hashtbl.copy t.obj_attrs;
        })
  in
  let lo = t.segments + 1 and hi = segments in
  u.objects <- Option.map (fun b -> build_objects u ~base:(Some b) ~lo ~hi) u.objects;
  u.relations <-
    Option.map (fun b -> build_relations u ~base:(Some b) ~lo ~hi) u.relations;
  Hashtbl.filter_map_inplace
    (fun name c -> Some (build_seg_attr u name ~base:(Some c) ~lo ~hi))
    u.seg_attrs;
  (match u.objects with
  | Some objs ->
      Hashtbl.filter_map_inplace
        (fun name c -> Some (build_obj_attr u objs name ~base:(Some c) ~lo ~hi))
        u.obj_attrs
  | None -> Hashtbl.reset u.obj_attrs);
  u
