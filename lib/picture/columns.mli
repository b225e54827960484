(** A columnar view of one level's meta-data, the layout the compiled
    scorer of {!Retrieval} reads.

    Segment [id] of the level owns a row in two CSR (compressed sparse
    row) parts: its objects, in [Seg_meta.objects] order, and its
    relationships, in [Seg_meta.relationships] order.  Attribute values
    live in {!cells} columns: a segment attribute has one cell per
    segment, an object attribute one cell per object row position.
    Type names, relationship names and string values are interned to
    ints, so no string is hashed or compared while scoring.

    Every part is built on first demand, once, over ids
    [1 .. segments] of the store the view was created on, and only for
    the attributes some formula reads.  A built part is immutable and
    read without locking; building and interning are serialized by the
    view's mutex. *)

type t

(** A column of attribute values: cell [i] is absent or holds an int, a
    float, an interned string or a boolean, as its tag says.  An int
    keeps its exact value in [ints] and its [float_of_int] in [nums]; a
    float lives in [nums] only, a string id or a boolean (0 or 1) in
    [ints] only.  Absence is its own tag, so a stored NaN stays a
    present value.  A column gets its [nums] at its first number, so
    one without numbers keeps it empty; it is not written once the
    column is published. *)
type cells = { tags : Bytes.t; ints : int array; mutable nums : float array }

val tag_absent : char
val tag_int : char
val tag_float : char
val tag_str : char
val tag_bool : char

type objects = {
  off : int array;
      (** the objects of segment [id] are positions
          [off.(id - 1) .. off.(id) - 1] *)
  oid : int array;
  first : int array;
      (** the row position of the first object with this one's id, which
          every lookup by id finds ([Seg_meta.find_object] is
          first-wins) *)
  otype : int array;  (** interned type name *)
  bbox : Metadata.Bbox.t option array;
  types : int array;  (** the distinct interned types, ascending *)
}

type relations = {
  roff : int array;
      (** the relationships of segment [id] are [roff.(id - 1) ..
          roff.(id) - 1] *)
  rname : int array;  (** interned relationship name *)
  aoff : int array;  (** the arguments of relationship [j] are
                         [args.(aoff.(j)) .. args.(aoff.(j + 1) - 1)] *)
  args : int array;
}

val create : Video_model.Store.t -> level:int -> segments:int -> t
(** An empty view of ids [1 .. segments] of [level]. *)

val extend : t -> segments:int -> t
(** The view of a level that grew by appends to [segments] ids: every
    part [t] has built is copied and extended over the new ids, and
    [t] is left as it was.
    @raise Invalid_argument when [segments] is below [t]'s. *)

val objects : t -> objects
val relations : t -> relations

val segments_naming : t -> int -> int array
(** The ascending segments with a relationship that names the object
    among its arguments — present there or not. *)

val seg_attr : t -> string -> cells
(** Cell [id - 1] is the segment's first binding of the name.  The
    column is built once and kept for the life of the view (and its
    {!extend}s), so callers ask only for names that some segment of the
    level binds. *)

val obj_attr : t -> string -> cells
(** Cell [p] is {!Metadata.Entity.attr} of the object at row position
    [p]: the virtual ["type"] and ["id"], else its first binding of the
    name.  Kept as {!seg_attr} keeps its column. *)

val attr_columns : t -> string list * string list
(** The names with a built segment attribute column and with a built
    object attribute column, each sorted. *)

val interned : t -> int
(** The number of interned strings.  Ids are dense and only grow, so a
    string absent from every part built so far cannot later get an id
    below this. *)

val lookup : t -> string -> int option
val name : t -> int -> string

(** {1 Cells} *)

val cells : int -> cells
(** [n] absent cells with room for numbers. *)

val set : cells -> int -> intern:(string -> int) -> Metadata.Value.t -> unit
(** Store a value, giving [cells] its float array if it is the first
    number. *)

val blit : cells -> int -> cells -> int -> unit
(** [blit src i dst j] copies one cell; [dst] has room for numbers. *)
