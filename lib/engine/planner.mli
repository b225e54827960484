(** Cost-based query planning (DESIGN.md §2.21).

    One pre-execution walk of the formula produces a physical plan: per
    hash-consed subformula an estimated support cardinality, selectivity
    and abstract cost, and from those three decisions —

    {ul
    {- {e conjunct order} for [And] chains: sparsest estimate first,
       the order {!Direct} folds the chain in (written order when the
       planner is off);}
    {- {e index-vs-scan} per non-temporal unit: estimated selectivity
       above the crossover threshold (calibrated against
       [BENCH_index.json]'s selectivity sweep) turns index pruning off
       for that unit;}
    {- {e direct-vs-SQL backend} when the caller asks for
       [Auto_backend].}}

    Estimates are drawn from {!Picture.Pruning.estimate} (posting-list
    lengths — a sound upper bound, exact for single-family atoms),
    precomputed named tables (exact coverage), and {!Obs.Stats}
    observations.  Blending is bounded: an observed selectivity EWMA can
    only {e lower} an estimate below the static bound, never raise it,
    so a cold mis-estimate cannot stick — the static bound is recomputed
    from the live index on every plan.

    No plan decision can change results: conjunction combiners are
    associative and commutative (property-tested), index pruning is
    sound either way (differential-tested), and the two backends are
    result-equal (differential-tested).  See the planned = written
    differential in [test/test_planner.ml]. *)

type access =
  | Table  (** a precomputed named table *)
  | Indexed of string  (** index-pruned candidates; the pruning plan *)
  | Scan of
      [ `No_index_plan  (** the pruning plan covers the whole level *)
      | `Pruning_disabled  (** the caller turned pruning off *)
      | `High_selectivity of float
        (** estimated selectivity above the crossover threshold *) ]

type node_est = {
  est_rows : int;  (** estimated support cardinality (segments) *)
  est_sel : float;  (** est_rows over the level's segment count *)
  est_cost : float;  (** abstract work units (1 = scoring a segment) *)
  access : access option;  (** [Some] on non-temporal leaf units *)
  order : int list option;
      (** planned conjunct order ([And] chains): positions of {!conjuncts},
          sparsest first *)
}

type t

val build :
  ?stats:Obs.Stats.t ->
  ?index:Picture.Index.t ->
  ?scan_threshold:float ->
  tables:(string * Simlist.Sim_table.t) list ->
  taxonomy:Picture.Taxonomy.t ->
  prune:bool ->
  segments:int ->
  level:int ->
  Htl.Ast.t ->
  t
(** Plan a formula against one level: [segments] is the level's segment
    count, [index] its finalized inverted index (omit for store-less
    contexts), [prune] whether the retrieval config has pruning on.
    [scan_threshold] defaults to the BENCH_index crossover (0.75).
    Cheap — posting-length arithmetic only, nothing materializes. *)

val find : t -> Htl.Ast.t -> node_est option
(** The subformula's estimate, by hash-consed identity. *)

val conjuncts : Htl.Ast.t -> Htl.Ast.t list
(** An [And] chain's conjuncts in written order (a non-[And] formula is
    its own one-conjunct chain): the positions {!join_order} permutes.
    The chain splits only at temporal [And]s; a non-temporal
    sub-conjunction stays one conjunct, the unit the planner estimates
    and [Atomic.resolve] scores whole. *)

val join_order : t -> Htl.Ast.t -> int list option
(** Planned conjunct order for an [And] chain rooted at the node, as
    positions of {!conjuncts}. *)

val access : t -> Htl.Ast.t -> access option
(** Planned access path for a non-temporal leaf unit. *)

val scan_override : t -> Htl.Ast.t -> bool
(** [true] iff the plan demotes this unit from index pruning to a full
    scan on selectivity grounds — the only access decision that changes
    behaviour relative to the static pruning rule. *)

val access_to_string : access -> string
(** EXPLAIN rendering: ["table"], ["index: <plan>"], ["scan"] or
    ["scan (planned, est sel 0.93)"]. *)

val node_attrs : t -> Htl.Ast.t -> (string * string) list
(** EXPLAIN attributes for a node: [est_rows] and [est_cost].  Empty
    when the node is unknown to the plan.  The join order is not among
    them: the [direct.and] node records the order it used. *)

val scan_threshold : t -> float

val direct_cost : t -> float
(** Estimated cost of the whole formula on the direct backend. *)

val sql_cost : t -> float
(** Estimated cost on the SQL backend (same atomic tables, plus
    relational materialization and per-segment temporal queries). *)

(** {1 Backend choice} *)

type backend_choice = {
  picked : [ `Direct | `Sql ];
  est_direct : float;
  est_sql : float;
  observed_direct_s : float option;  (** latency EWMA, if ever run *)
  observed_sql_s : float option;
  reason : string;  (** human-readable: what decided and with what numbers *)
}

val choose_backend : ?stats:Obs.Stats.t -> fingerprint:int -> t -> backend_choice
(** Resolve [Auto_backend]: when both backends carry an observed
    latency EWMA for this fingerprint, the faster observation wins;
    otherwise the lower static cost estimate does. *)
