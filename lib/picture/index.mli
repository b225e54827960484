(** Finalized inverted indices over one level of the video store, as
    used by the picture retrieval system to find candidate segments for
    the conditions of a query ([27] §"indices on spatial
    relationships").

    An index is built in one scan of the level and then immutable: every
    posting list is a sorted (ascending, duplicate-free) [int array] of
    global segment ids, ready for the galloping set operations in
    {!Pruning} with no per-lookup reversal or sort.  Besides the
    object/type/relationship families the index stores segment- and
    object-attribute postings (name and (name, value)) and the hoisted
    freeze-region point sets that {!Retrieval} previously recomputed per
    evaluation. *)

type t

type points = {
  ints : int list;  (** sorted distinct integer values seen *)
  strs : string list;  (** sorted distinct string values seen *)
  bad : [ `Float | `Bool ] option;
      (** first non-indexable kind in segment scan order, if any — the
          hoisted freeze-region pass reports it exactly as the per-eval
          scan used to *)
}

val no_points : points

val build : ?metrics:Obs.Metrics.t -> Video_model.Store.t -> level:int -> t
(** Scan the level once and finalize.  Bumps the
    [picture.index.builds] counter when a registry is supplied. *)

val build_delta : Video_model.Store.t -> level:int -> lo:int -> t
(** Scan only ids [lo .. count_at store ~level] — the tail appended
    since a base index covering [lo - 1] segments was built.  Does not
    bump [picture.index.builds].
    @raise Invalid_argument when [lo] is outside [1 .. count_at]. *)

val merge : t -> t -> t
(** [merge base delta] is the index [build] would produce over the whole
    level, given [base] covering a prefix and [delta] the rest (appended
    ids are greater than every base id, so posting arrays concatenate in
    sorted order).  Neither input is mutated — concurrent readers and
    snapshot dumps holding the base stay coherent.
    @raise Invalid_argument on level mismatch or when [delta] covers
    fewer segments than [base]. *)

val segments_of_object : t -> int -> int array
(** Sorted global ids of the segments containing the object. *)

val segments_of_type : t -> string -> int array
(** Segments containing at least one object of exactly this type. *)

val segments_of_relationship : t -> string -> int array
(** Segments storing at least one relationship with this name. *)

val segments_with_objects : t -> int array
(** Segments containing at least one object. *)

val segments_with_seg_attr : t -> string -> int array
(** Segments where the segment attribute is defined. *)

val segments_with_seg_attr_value : t -> string -> Metadata.Value.t -> int array
(** Segments where the segment attribute equals the value (under
    {!Metadata.Value.equal}'s Int/Float coercion).  Empty for NaN. *)

val segments_with_obj_attr : t -> string -> int array
(** Segments where some object defines the attribute.  The virtual
    attributes "type" and "id" of {!Metadata.Entity.attr} are indexed,
    so these two names cover every segment with objects. *)

val segments_with_obj_attr_value : t -> string -> Metadata.Value.t -> int array
(** Segments where some object's attribute equals the value. *)

val seg_attr_points : t -> string -> points
(** Every value the segment attribute takes across the level. *)

val obj_attr_points : t -> string -> oid:int -> points
(** Every value the attribute takes on this object across the level. *)

val objects_at_level : t -> int list
(** Sorted universal object ids present in at least one segment. *)

val types_at_level : t -> string list
(** Sorted object types present in at least one segment. *)

val level : t -> int
val segment_count : t -> int

(** {1 The columnar view}

    The level's meta-data laid out for the compiled scorer of
    {!Retrieval}: per-segment CSR rows of objects and relationships,
    one cell column per attribute a formula has read, and every type,
    relationship name and string value interned to an int (see
    {!Columns}).  The view is created on first demand, each of its
    parts built on first demand, over ids [1 .. segment_count] of
    [store] — the store the index was built over.  It is not part of
    {!dump}: a restored index starts without it, and snapshot bytes do
    not depend on it.  {!merge} extends the parts the base had built
    over the appended ids. *)

val columns : t -> Video_model.Store.t -> Columns.t

(** {1 Frozen-attribute values}

    The value table of a freeze quantifier (§3.3) over the level, kept
    with the index per (attribute, object-or-segment).  It is built on
    first demand from {!segments_of_object} and the store's meta-data,
    and is not part of {!dump}: a restored index starts without it.
    The {!Registry} replaces an index on any edit or append at its
    level, so a table never outlives the data it was read from. *)

type value_row = {
  oid : int option;  (** the object; [None] for a segment attribute *)
  value : Simlist.Range.value;
  spans : Simlist.Interval.t list;
      (** ascending, disjoint maximal runs of segments holding [value] *)
}

type frozen_values = (value_row list, [ `Float of int | `Bool ]) result
(** The rows, per object in {!objects_at_level} order, or the first value
    that cannot be frozen: a float (with the highest segment id of the
    first object holding one) or a boolean. *)

val frozen_values :
  t -> Video_model.Store.t -> attr:string -> objects:bool -> frozen_values
(** The attribute's values on every object of the level ([objects]) or
    on the segments themselves, read from [store] — the store the index
    was built over — on the first call only. *)

(** {1 Serialization view}

    Snapshots (Storage.Snapshot) persist finalized indexes.  A {!dump}
    flattens every hashtable into a sorted association list so the same
    index always serializes to the same bytes; {!undump} rebuilds the
    tables.  Posting arrays are shared between the index and its dump —
    both treat them as immutable. *)

type vkey = Knum of float | Kstr of string | Kbool of bool
(** Posting key for attribute values: Int/Float coerce onto [Knum]
    (-0. folds onto 0.), NaN is never stored. *)

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

val dump : t -> dump
(** Deterministic: association lists sorted by key. *)

val undump : dump -> t

(** A per-context cache of finalized indexes, keyed by level and stamped
    with {!Video_model.Store.version} — the same stamp [Engine.Cache]
    uses, so any store mutation invalidates both.  Thread-safe: one
    mutex serializes lookups and builds, giving build-once semantics
    under the domain pool. *)
module Registry : sig
  type index = t
  type t

  val create : unit -> t

  val get :
    t -> ?metrics:Obs.Metrics.t -> Video_model.Store.t -> level:int -> index
  (** The cached index for the store's current version, building it on
      first use.  On a version mismatch the registry replays the store's
      change log: an edit drops only its own level (rebuilt on next
      demand); a cached level that gained segments is extended by a
      {!build_delta}/{!merge} pair ([picture.index.delta_merges], with
      [picture.index.builds] staying flat); past the log horizon every
      level is dropped.  Bumps [picture.index.registry_hits] on a
      hit. *)

  val preload : t -> version:int -> index list -> unit
  (** Replace the registry's contents with already-finalized indexes
      (keyed by their own level) stamped with [version] — snapshot
      restore, so the first query after a load is a registry hit, not a
      rebuild. *)
end
