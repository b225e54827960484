(** Object-type taxonomy with graded type similarity.

    The picture retrieval system of [27, 2] retrieves near matches: a
    query asking for a {e woman} gives partial credit to a segment showing
    a {e man} (both are {e person}s) — this is how the paper's Table 2
    contains low-similarity rows for "two men instead of a man and a
    woman".  The taxonomy is a forest of type names; similarity between
    the requested and the found type decays with the distance to their
    lowest common ancestor. *)

type t

val empty : t

val add : t -> ?parent:string -> string -> t
(** Add a type under an optional parent.
    @raise Invalid_argument if the type already exists or the parent
    does not. *)

val of_edges : (string option * string) list -> t
(** [(parent, child)] pairs, parents first. *)

val default : t
(** A small built-in taxonomy used by the examples: thing > person >
    (man, woman), thing > vehicle > (train, car, airplane), thing >
    animal > (horse, dog), thing > weapon > (gun, rifle), thing >
    structure > (building, bridge). *)

val mem : t -> string -> bool

val is_subtype : t -> sub:string -> super:string -> bool
(** Reflexive-transitive. *)

val similarity : t -> asked:string -> found:string -> float
(** In [[0, 1]]: [1] when [found] is a subtype of [asked] (a man {e is} a
    person); otherwise [2^-(da + df)] where [da]/[df] are the distances
    from asked/found up to their lowest common ancestor; [0] when they
    share none.  Types absent from the taxonomy only match themselves. *)

val compatible : t -> asked:string -> found:string -> bool
(** [similarity t ~asked ~found > 0.]: equal names, or two members of the
    same tree (which share its root as an ancestor).  Allocates nothing,
    so a scan over every type at a level stays free of garbage. *)
