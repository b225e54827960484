(** Sequence extents: the partition of the 1-based id space into maximal
    proper sequences.

    Temporal operators range over a {e proper sequence} (§2.3): the
    children of one parent node, or the segments of one video when several
    videos share a global numbering.  [next] and [until] must never cross
    from one sequence into the next, so every similarity-list operation
    that looks sideways takes the extent partition as a parameter. *)

type t

val single : int -> t
(** [single n] is one extent covering ids [1..n].
    @raise Invalid_argument if [n < 1]. *)

val of_lengths : int list -> t
(** [of_lengths [l1; l2; ...]] partitions [1..sum li] into consecutive
    extents of the given lengths.
    @raise Invalid_argument on an empty list or a non-positive length. *)

val of_spans : Interval.t list -> t
(** Inverse of {!spans}.
    @raise Invalid_argument unless the spans tile [1..n] consecutively
    starting at 1. *)

val total : t -> int
(** Highest id covered. *)

val count : t -> int
(** Number of extents. *)

val spans : t -> Interval.t list

val containing : t -> int -> Interval.t
(** The extent containing the given id (binary search).
    @raise Invalid_argument if the id is out of range. *)

val last_of : t -> int -> int
(** [last_of t i] is the last id of the extent containing [i]; allocates
    nothing. *)

(** {1 By index}

    Extents are numbered [0 .. count - 1] in id order.  These read an
    extent's bounds without building an {!Interval.t}, for kernels that
    look one up per list entry. *)

val index_containing : t -> int -> int
(** The number of the extent containing the given id (binary search).
    @raise Invalid_argument if the id is out of range. *)

val first_id : t -> int -> int
(** First id of extent [k]. *)

val last_id : t -> int -> int
(** Last id of extent [k]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
