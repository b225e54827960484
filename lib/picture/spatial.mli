(** Spatial relationships, either stored explicitly in the meta-data or
    derived from object bounding boxes (the spatial indices of [26, 27]). *)

val derived : string list
(** Relation names this module can derive from bounding boxes:
    [left_of], [right_of], [above], [below], [overlaps], [inside]. *)

val derivation :
  string -> (Metadata.Bbox.t -> Metadata.Bbox.t -> bool) option
(** The test of a relation in {!derived} on two boxes, [None] for any
    other name: {!derive} staged on the name. *)

val derive : string -> Metadata.Bbox.t -> Metadata.Bbox.t -> bool
(** [derive r a b]: the derivable relation [r] between boxes [a] and [b];
    false for names outside {!derived}. *)

val holds : Metadata.Seg_meta.t -> string -> int list -> bool
(** [holds meta r args]: true when the relationship is stored explicitly,
    or when [r] is a derivable binary spatial relation and the objects'
    bounding boxes satisfy it. *)
