let derived = [ "left_of"; "right_of"; "above"; "below"; "overlaps"; "inside" ]

let derivation : string -> (Metadata.Bbox.t -> Metadata.Bbox.t -> bool) option =
  function
  | "left_of" -> Some Metadata.Bbox.left_of
  | "right_of" -> Some (fun a b -> Metadata.Bbox.left_of b a)
  | "above" -> Some Metadata.Bbox.above
  | "below" -> Some (fun a b -> Metadata.Bbox.above b a)
  | "overlaps" -> Some Metadata.Bbox.overlaps
  | "inside" -> Some Metadata.Bbox.inside
  | _ -> None

let derive name a b =
  match derivation name with Some holds -> holds a b | None -> false

let holds meta name args =
  Metadata.Seg_meta.has_relationship meta name args
  ||
  match args with
  | [ x; y ] when List.mem name derived -> (
      match (Metadata.Seg_meta.find_object meta x, Metadata.Seg_meta.find_object meta y) with
      | Some ox, Some oy -> (
          match (ox.Metadata.Entity.bbox, oy.Metadata.Entity.bbox) with
          | Some ba, Some bb -> derive name ba bb
          | _, _ -> false)
      | _, _ -> false)
  | _ -> false
