(** Memoization of subformula similarity tables.

    An LRU cache mapping (interned formula id, level, extent partition)
    to the {!Simlist.Sim_table.t} the direct algorithms computed for that
    subformula.  Interactive workloads re-issue formulas sharing large
    subtrees (query refinement, browsing); with a cache attached to the
    evaluation context, every shared subtree is computed once per store
    state.

    The key deliberately carries more than the ISSUE's minimal
    (formula, level) pair: two evaluations of the same subformula at the
    same level can still range over different proper-sequence partitions
    when it sits under nested level operators entered from different
    heights, and temporal operators read the partition, so the extent
    fingerprint is part of the key (see DESIGN.md, "Caching &
    invalidation").

    The store version is {e not} part of the key.  Each entry carries the
    version it was computed at as a stamp; a lookup at a newer version
    passes a validity predicate that replays the store's change log
    ({!Video_model.Store.changes_since}) and decides whether the changes
    in between could affect the entry (extent-scoped invalidation —
    DESIGN.md §2.19).  Valid entries survive the version bump (counted in
    {!survivals}, restamped so the replay is paid once); invalid ones are
    dropped on probe ({!stale_drops}).

    A cache belongs to one evaluation context configuration: everything
    else that determines a result (threshold, conjunction mode, named
    tables, picture weights) is fixed per {!Context.t} and deliberately
    not in the key.  Do not share one cache between contexts that differ
    in those settings; {!Context.of_store} and {!Context.of_tables} create
    a private cache by default.

    The cache is thread-safe: one internal mutex serializes every
    operation, counters included, so a cache shared by worker domains
    during parallel evaluation ({!Parallel.Pool}, DESIGN.md §2.13) keeps
    a coherent LRU order and coherent {!stats}.  Two domains may race to
    compute the same missing entry; both then {!add} the same value,
    which is wasted work but never wrong. *)

type key

val key :
  formula:int ->
  level:int ->
  extents:Simlist.Extent.t ->
  domains:(string * Picture.Retrieval.domain) list ->
  key
(** [formula] is {!Htl.Hcons.intern_id} of the subformula; [domains] the
    enclosing freezes of its free attribute variables (empty outside
    every freeze), which decide the region rows its atoms build. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current occupancy *)
  capacity : int;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256 entries.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int

type outcome =
  | Hit of Simlist.Sim_table.t  (** entry stamped with the current version *)
  | Survived of Simlist.Sim_table.t
      (** entry from an older version that the validity predicate let
          through; restamped to the current version *)
  | Stale  (** entry found but invalidated by the changes; dropped *)
  | Absent

val find :
  t -> key -> version:int -> valid:(stamp:int -> bool) -> outcome
(** Look the key up at the given store [version].  An entry stamped with
    an older version is kept iff [valid ~stamp] says the store changes
    between [stamp] and [version] cannot affect it.  [valid] runs under
    the cache mutex — it must not call back into this cache.  Counts a
    hit ([Hit]/[Survived], refreshing recency) or a miss
    ([Stale]/[Absent]). *)

val add : t -> key -> version:int -> Simlist.Sim_table.t -> unit
(** Insert at most-recent position with the given version stamp,
    evicting the least recently used entry when full.  Replaces (and
    restamps) an existing binding for the same key. *)

val stats : t -> stats

val survivals : t -> int
(** Entries that outlived a version bump via the validity predicate. *)

val stale_drops : t -> int
(** Entries dropped on probe because a change invalidated them. *)

val reset_stats : t -> unit
(** Zero the counters; entries stay. *)

val clear : t -> unit
(** Drop all entries and zero the counters. *)

val pp_stats : Format.formatter -> stats -> unit
(** e.g. [hits 12  misses 4  evictions 0  entries 4/256]. *)
