(** Ranking: the paper presents the top k video segments with the highest
    similarity values (§1), and reports ranked interval tables like
    Table 4. *)

val ranked_intervals :
  Simlist.Sim_list.t -> (Simlist.Interval.t * float) list
(** All entries sorted by decreasing actual similarity, ties by interval
    start — the layout of the paper's Table 4. *)

val top_k : Simlist.Sim_list.t -> k:int -> (int * Simlist.Sim.t) list
(** The k segment ids with the highest similarity (ties broken by id):
    {!merged_top_k} of the single list at offset 0.  One k-bounded heap
    pass selects the k best entries and only those are expanded to ids,
    so the cost is O(m log k + k) for m entries, never O(total
    segments) — asking for the top 10 of a whole-movie list is cheap.
    [k = 0] yields [[]]; a [k] beyond the population yields every
    positive-similarity segment.
    @raise Invalid_argument when [k] is negative. *)

val merged_top_k :
  (Simlist.Sim_list.t * int) list -> k:int -> (int * Simlist.Sim.t) list
(** [merged_top_k [(l0, off0); (l1, off1); ...] ~k]: the k best segments
    of the union of the lists, where list [i]'s ids are shifted by
    [offi] into a global numbering — the coordinator step of
    scatter–gather evaluation over sharded stores.  The shifted entries
    must be pairwise disjoint across lists (shards partition the id
    space) and every list must carry the same maximum.  The result
    equals {!top_k} of the merged list without ever materialising it;
    the one implementation behind both, O(m log k + k) for m total
    entries.
    @raise Invalid_argument when [k] is negative, the list of lists is
    empty, or the maxima disagree. *)

val pp_table :
  ?header:string * string * string ->
  Format.formatter ->
  Simlist.Sim_list.t ->
  unit
(** Print a ranked interval table in the paper's three-column layout. *)
