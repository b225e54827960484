open Sexp
module V = Metadata.Value

let conv_fail fmt = Format.kasprintf (fun s -> raise (Conv_error s)) fmt

(* --- values ---------------------------------------------------------------- *)

let value_to_sexp = function
  | V.Int n -> field "int" [ int n ]
  | V.Float f -> field "float" [ float f ]
  | V.Str s -> field "str" [ atom s ]
  | V.Bool b -> field "bool" [ atom (string_of_bool b) ]

let value_of_sexp s =
  match s with
  | List [ Atom "int"; n ] -> V.Int (as_int n)
  | List [ Atom "float"; f ] -> V.Float (as_float f)
  | List [ Atom "str"; a ] -> V.Str (as_atom a)
  | List [ Atom "bool"; b ] -> (
      match as_atom b with
      | "true" -> V.Bool true
      | "false" -> V.Bool false
      | other -> conv_fail "bad boolean %S" other)
  | other -> conv_fail "bad value %s" (to_string other)

let attrs_to_sexp attrs =
  list
    (List.map (fun (k, v) -> list [ atom k; value_to_sexp v ]) attrs)

let attrs_of_sexp s =
  List.map
    (fun item ->
      match as_list item with
      | [ k; v ] -> (as_atom k, value_of_sexp v)
      | _ -> conv_fail "bad attribute %s" (to_string item))
    (as_list s)

(* --- entities ---------------------------------------------------------------- *)

let bbox_to_sexp (b : Metadata.Bbox.t) =
  field "bbox" [ float b.x0; float b.y0; float b.x1; float b.y1 ]

let bbox_of_sexp = function
  | List [ Atom "bbox"; x0; y0; x1; y1 ] ->
      Metadata.Bbox.make ~x0:(as_float x0) ~y0:(as_float y0) ~x1:(as_float x1)
        ~y1:(as_float y1)
  | other -> conv_fail "bad bbox %s" (to_string other)

let entity_to_sexp (o : Metadata.Entity.t) =
  field "object"
    ([ field "id" [ int o.id ]; field "type" [ atom o.otype ];
       field "attrs" [ attrs_to_sexp o.attrs ] ]
    @ match o.bbox with None -> [] | Some b -> [ bbox_to_sexp b ])

let entity_of_sexp s =
  match s with
  | List (Atom "object" :: fields) ->
      let id = as_int (List.hd (assoc "id" fields)) in
      let otype = as_atom (List.hd (assoc "type" fields)) in
      let attrs = attrs_of_sexp (List.hd (assoc "attrs" fields)) in
      let bbox =
        match assoc_opt "bbox" fields with
        | Some args -> Some (bbox_of_sexp (List (Atom "bbox" :: args)))
        | None -> None
      in
      Metadata.Entity.make ~id ~otype ~attrs ?bbox ()
  | other -> conv_fail "bad object %s" (to_string other)

let relationship_to_sexp (r : Metadata.Relationship.t) =
  field "rel" (atom r.name :: List.map int r.args)

let relationship_of_sexp = function
  | List (Atom "rel" :: name :: args) ->
      Metadata.Relationship.make (as_atom name) (List.map as_int args)
  | other -> conv_fail "bad relationship %s" (to_string other)

let seg_meta_to_sexp (m : Metadata.Seg_meta.t) =
  field "meta"
    [
      field "objects" (List.map entity_to_sexp m.objects);
      field "relationships" (List.map relationship_to_sexp m.relationships);
      field "attrs" [ attrs_to_sexp m.attrs ];
    ]

let seg_meta_of_sexp = function
  | List (Atom "meta" :: fields) ->
      Metadata.Seg_meta.make
        ~objects:(List.map entity_of_sexp (assoc "objects" fields))
        ~relationships:
          (List.map relationship_of_sexp (assoc "relationships" fields))
        ~attrs:(attrs_of_sexp (List.hd (assoc "attrs" fields)))
        ()
  | other -> conv_fail "bad meta %s" (to_string other)

(* --- segments / videos / stores ------------------------------------------------ *)

let rec segment_to_sexp (s : Video_model.Segment.t) =
  field "segment"
    [
      seg_meta_to_sexp s.meta;
      field "children" (List.map segment_to_sexp s.children);
    ]

let rec segment_of_sexp = function
  | List [ Atom "segment"; meta; List (Atom "children" :: children) ] ->
      Video_model.Segment.make ~meta:(seg_meta_of_sexp meta)
        (List.map segment_of_sexp children)
  | other -> conv_fail "bad segment %s" (to_string other)

let video_to_sexp (v : Video_model.Video.t) =
  field "video"
    [
      field "title" [ atom v.title ];
      field "levels" (List.map atom (Array.to_list v.level_names));
      segment_to_sexp v.root;
    ]

let video_of_sexp = function
  | List (Atom "video" :: fields) ->
      let title = as_atom (List.hd (assoc "title" fields)) in
      let level_names = List.map as_atom (assoc "levels" fields) in
      let root =
        match
          List.find_opt
            (function List (Atom "segment" :: _) -> true | _ -> false)
            fields
        with
        | Some s -> segment_of_sexp s
        | None -> conv_fail "video without a root segment"
      in
      Video_model.Video.create ~title ~level_names root
  | other -> conv_fail "bad video %s" (to_string other)

let store_to_sexp store =
  field "store" (List.map video_to_sexp (Video_model.Store.videos store))

let store_of_sexp = function
  | List (Atom "store" :: videos) ->
      Video_model.Store.create (List.map video_of_sexp videos)
  | other -> conv_fail "bad store %s" (to_string other)

(* --- similarity lists and tables ------------------------------------------------ *)

let sim_list_to_sexp l =
  field "simlist"
    (field "max" [ float (Simlist.Sim_list.max_sim l) ]
    :: List.init (Simlist.Sim_list.length l) (fun i ->
           list
             [
               int (Simlist.Sim_list.lo l i);
               int (Simlist.Sim_list.hi l i);
               float (Simlist.Sim_list.value l i);
             ]))

let sim_list_of_sexp = function
  | List (Atom "simlist" :: List [ Atom "max"; m ] :: entries) ->
      Simlist.Sim_list.of_entries ~max:(as_float m)
        (List.map
           (fun e ->
             match as_list e with
             | [ lo; hi; v ] ->
                 (Simlist.Interval.make (as_int lo) (as_int hi), as_float v)
             | _ -> conv_fail "bad simlist entry %s" (to_string e))
           entries)
  | other -> conv_fail "bad simlist %s" (to_string other)

let range_to_sexp = function
  | Simlist.Range.Ints { lo; hi } ->
      let bound = function None -> atom "inf" | Some n -> int n in
      field "ints" [ bound lo; bound hi ]
  | Simlist.Range.Str None -> field "str-any" []
  | Simlist.Range.Str (Some s) -> field "str" [ atom s ]

let range_of_sexp s =
  let bound t =
    match as_atom t with "inf" -> None | _ -> Some (as_int t)
  in
  match s with
  | List [ Atom "ints"; lo; hi ] ->
      Simlist.Range.Ints { lo = bound lo; hi = bound hi }
  | List [ Atom "str-any" ] -> Simlist.Range.Str None
  | List [ Atom "str"; v ] -> Simlist.Range.Str (Some (as_atom v))
  | other -> conv_fail "bad range %s" (to_string other)

let row_to_sexp (r : Simlist.Sim_table.row) =
  field "row"
    [
      field "objs" (List.map (fun (x, o) -> list [ atom x; int o ]) r.objs);
      field "ranges"
        (List.map (fun (y, rg) -> list [ atom y; range_to_sexp rg ]) r.attrs);
      sim_list_to_sexp r.list;
    ]

let row_of_sexp = function
  | List [ Atom "row"; List (Atom "objs" :: objs);
           List (Atom "ranges" :: ranges); l ] ->
      {
        Simlist.Sim_table.objs =
          List.map
            (fun o ->
              match as_list o with
              | [ x; id ] -> (as_atom x, as_int id)
              | _ -> conv_fail "bad binding %s" (to_string o))
            objs;
        attrs =
          List.map
            (fun r ->
              match as_list r with
              | [ y; rg ] -> (as_atom y, range_of_sexp rg)
              | _ -> conv_fail "bad range binding %s" (to_string r))
            ranges;
        list = sim_list_of_sexp l;
      }
  | other -> conv_fail "bad row %s" (to_string other)

let sim_table_to_sexp t =
  field "simtable"
    [
      field "objcols" (List.map atom (Simlist.Sim_table.obj_cols t));
      field "attrcols" (List.map atom (Simlist.Sim_table.attr_cols t));
      field "max" [ float (Simlist.Sim_table.max_sim t) ];
      field "rows" (List.map row_to_sexp (Simlist.Sim_table.rows t));
    ]

let sim_table_of_sexp = function
  | List (Atom "simtable" :: fields) ->
      Simlist.Sim_table.create
        ~obj_cols:(List.map as_atom (assoc "objcols" fields))
        ~attr_cols:(List.map as_atom (assoc "attrcols" fields))
        ~max:(as_float (List.hd (assoc "max" fields)))
        (List.map row_of_sexp (assoc "rows" fields))
  | other -> conv_fail "bad simtable %s" (to_string other)

let tables_to_sexp tables =
  field "tables"
    (List.map
       (fun (name, t) -> list [ atom name; sim_table_to_sexp t ])
       tables)

let tables_of_sexp = function
  | List (Atom "tables" :: items) ->
      List.map
        (fun item ->
          match as_list item with
          | [ name; t ] -> (as_atom name, sim_table_of_sexp t)
          | _ -> conv_fail "bad table binding %s" (to_string item))
        items
  | other -> conv_fail "bad tables bundle %s" (to_string other)
