(** Evaluation contexts.

    A context fixes everything the retrieval algorithms need besides the
    formula: where atomic similarity tables come from (the picture
    retrieval system over a store, and/or precomputed named tables — the
    paper's experiments feed precomputed tables), the level the query is
    asserted on, the proper-sequence extents of that level, and the
    until-threshold. *)

type extent_source
(** Either a fixed partition snapshot or one re-derived from the store
    whenever its version stamp moves (so a long-lived context sees
    appended segments without being rebuilt). *)

type t = {
  store : Video_model.Store.t option;
  picture_config : Picture.Retrieval.config;
  tables : (string * Simlist.Sim_table.t) list;
      (** precomputed atomic tables, keyed by nullary predicate name *)
  threshold : float;  (** fractional-similarity threshold for [until] *)
  conj_mode : Simlist.Sim_list.conj_mode;
      (** conjunction semantics; [Weighted_sum] is the paper's (§2.5),
          the others are the §5 "other similarity functions" extension *)
  level : int;  (** level the formula is asserted on *)
  extent_source : extent_source;
      (** where the level's proper-sequence partition comes from; read it
          through {!extents}.  {!of_store} tracks the store (appends are
          picked up automatically); {!with_level} pins the partition the
          caller computed. *)
  cache : Cache.t option;
      (** subformula result cache; [None] disables memoization.  A cache
          is private to one configuration: derive contexts that change
          [threshold]/[conj_mode]/[tables]/[picture_config] through
          {!with_fresh_cache} (or {!without_cache}), never by sharing the
          original's cache. *)
  pool : Parallel.Pool.t option;
      (** domain pool for parallel evaluation; [None] (the default) keeps
          everything on the calling domain.  The pool is a shared
          resource — many contexts (and {!Query.run_batch}) may use one
          pool concurrently. *)
  par_cutoff : int;
      (** sequential cutoff: fan-out sites stay sequential when the work
          spans fewer than this many units (segments, parents, conjunct
          extents).  Default 4096; set 0 to force the parallel paths
          (tests do). *)
  tracer : Obs.Trace.t option;
      (** span recorder the evaluators emit into; [None] (the default)
          is the zero-cost no-op path (see {!with_span}). *)
  metrics : Obs.Metrics.t option;
      (** metrics registry (query latency, cache hit/miss, scan sizes);
          [None] disables recording.  Inside an observed query it is the
          query's own registry ({!Query.envelope}), whose counters are
          added to this one when the query ends. *)
  querylog : Obs.Querylog.t option;
      (** slow-query log {!Query.run} appends to when a query's latency
          reaches its threshold; [None] (the default) disables it. *)
  stats : Obs.Stats.t option;
      (** always-on statistics collector ({!Obs.Stats}): per-fingerprint
          latency EWMAs, per-atom observed selectivity and per-backend
          error rates, folded on every {!Query.run}; [None] (the
          default) disables it. *)
  trace_id : string option;
      (** the request's end-to-end trace id ({!Obs.Traceid}) when the
          query runs under the service — stamped into query-log records
          so they join the request's span tree.  [None] outside a
          request. *)
  deadline : float;
      (** monotonic {!Obs.Clock.now} seconds past which {!with_span}
          raises {!Deadline_exceeded}; [infinity] (the default) when
          there is none, and then no clock is read.  The server sets it
          per request ({!with_deadline}). *)
  registry : Picture.Index.Registry.t;
      (** per-store index registry: finalized {!Picture.Index} per level,
          stamped with the store version (the stamp {!Cache} uses), so
          repeated queries and batches never rebuild.  Created by
          {!of_store}/{!of_tables} and shared by every derived context
          ([with_level], [with_fresh_cache], record updates, ...). *)
  planner : bool;
      (** whether {!Query} builds a cost-based {!Planner} plan before
          dispatch (default true).  The plan orders [And] chains (an
          engine choice the paper leaves to the relational engine in its
          SQL variant; it never changes a result).  {!without_planner}
          reverts every planning decision: joins in written order, the
          static pruning rule, and [Auto_backend] resolving to the
          direct backend. *)
  plan : Planner.t option;
      (** the current query's physical plan, attached by {!Query} just
          before dispatch ([None] otherwise).  Scoped to one formula at
          the context's level: {!with_level} clears it. *)
  domains : (string * Picture.Retrieval.domain) list;
      (** the freezes enclosing the formula being evaluated, one per
          attribute variable in scope: [var ↦ (attr, obj)].  Set by the
          evaluators' freeze arms ({!with_domain}); {!Atomic.resolve}
          hands them to {!Picture.Retrieval.eval}, which builds only the
          region rows those freezes can keep, and the subformula cache
          key carries the ones free in the subformula.  {!with_level}
          clears it: a freeze's values at one level say nothing about
          another. *)
}

val of_store :
  ?config:Picture.Retrieval.config ->
  ?threshold:float ->
  ?conj_mode:Simlist.Sim_list.conj_mode ->
  ?tables:(string * Simlist.Sim_table.t) list ->
  ?level:int ->
  ?cache:Cache.t ->
  ?pool:Parallel.Pool.t ->
  ?par_cutoff:int ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?querylog:Obs.Querylog.t ->
  ?stats:Obs.Stats.t ->
  ?planner:bool ->
  Video_model.Store.t ->
  t
(** [level] defaults to the leaf level; extents are the per-video spans.
    [cache] defaults to a fresh private {!Cache.t} (capacity 256);
    [pool] to none (sequential evaluation); [planner] to true
    (cost-based planning on). *)

val of_tables :
  ?threshold:float ->
  ?conj_mode:Simlist.Sim_list.conj_mode ->
  n:int ->
  ?extents:Simlist.Extent.t ->
  ?cache:Cache.t ->
  ?pool:Parallel.Pool.t ->
  ?par_cutoff:int ->
  ?tracer:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  ?querylog:Obs.Querylog.t ->
  ?stats:Obs.Stats.t ->
  ?planner:bool ->
  (string * Simlist.Sim_table.t) list ->
  t
(** Store-less context over segment ids [1..n] — the §4 experimental
    setting where atomic similarity tables are the input.  [extents]
    defaults to a single sequence; [cache] to a fresh private cache. *)

val with_level : t -> level:int -> extents:Simlist.Extent.t -> t
(** Pin the level and its partition.  The extents are a snapshot: a
    context derived this way does not track later appends — derive a
    fresh one per request (the server does) or use {!of_store}. *)

val with_domain : t -> var:string -> Picture.Retrieval.domain -> t
(** Evaluate a freeze's body: record [[var <- attr(obj)]], replacing an
    outer freeze of the same variable. *)

val shadow_obj_var : t -> string -> t
(** Evaluate the body of [exists x]: drop the domains whose object
    variable is [x], which names another object there. *)

val extents : t -> Simlist.Extent.t
(** The current proper-sequence partition of the context's level.  For
    store-tracking contexts this re-derives after any store version
    change, so appended segments are visible; {!with_level}-derived
    contexts return the pinned snapshot. *)

val with_registry : t -> Picture.Index.Registry.t -> t
(** Replace the index registry — used when restoring a snapshot whose
    finalized indexes were preloaded into a registry, so queries start
    with zero rebuilds. *)

val segment_count : t -> int

(** {1 Cost-based planning}

    {!Query} plans each query just before dispatch when [planner] is on
    and no plan is attached yet; the evaluators ({!Direct}, {!Atomic})
    and {!Explain} read [plan] and fall back to written join order and
    the static pruning rule when it is [None]. *)

val with_plan : t -> Planner.t -> t
val without_plan : t -> t

val with_planner : t -> t
val without_planner : t -> t
(** Turn cost-based planning off (and drop any attached plan): joins
    follow written order, atoms follow the static pruning rule,
    [Auto_backend] resolves to direct.  The written arm of the
    planned = written differential. *)

(** {1 Parallel evaluation} *)

val with_pool : ?par_cutoff:int -> t -> Parallel.Pool.t -> t
(** Attach a domain pool (and optionally override the cutoff). *)

val without_pool : t -> t
val with_par_cutoff : t -> int -> t

val pool_for : t -> n:int -> Parallel.Pool.t option
(** The gate every fan-out site goes through: the context's pool when
    the work spans at least [par_cutoff] units of size [n] {e and} the
    pool has more than one domain; [None] otherwise. *)

(** {1 Observability}

    Every instrumentation site in the evaluators goes through these
    helpers.  With no tracer/metrics attached (the default) each one is
    a single [option] match that falls straight through to the work —
    the attribute thunk is never forced, no clock is read, nothing
    allocates beyond the call itself.  See DESIGN.md §2.14. *)

val with_tracer : t -> Obs.Trace.t -> t
val without_tracer : t -> t

val with_metrics : t -> Obs.Metrics.t -> t
(** Also pre-registers the [cache.hits]/[cache.misses] counters (at 0)
    so both series appear in every exposition, hit-only runs included.
    {!of_store}/{!of_tables} do the same for a [?metrics] argument. *)

val without_metrics : t -> t

val with_querylog : t -> Obs.Querylog.t -> t
val without_querylog : t -> t

val with_stats : t -> Obs.Stats.t -> t
val without_stats : t -> t

val with_trace_id : t -> string -> t
(** Stamp the request's trace id on a derived context (the server does
    this per request); {!Query.run} copies it into query-log
    records. *)

exception Deadline_exceeded
(** Raised by {!with_span} once the context's [deadline] has passed. *)

val with_deadline : t -> float -> t
(** Stamp a deadline ({!Obs.Clock.now} seconds) on a derived context. *)

val with_span :
  t -> ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span of the context's tracer, or run it
    directly when there is none.  [attrs] is forced only when tracing.

    Every computed evaluator node, ["query.run"] and ["shard.scatter"]
    pass through here, so this is also where the deadline is checked:
    on entry, once [Obs.Clock.now () >= deadline], it raises
    {!Deadline_exceeded} without running the thunk.  The work between
    two checks (one atom's picture scan, one list kernel) runs to its
    end, so an evaluation overruns its deadline by at most one such
    step. *)

val add_attr : t -> string -> (unit -> string) -> unit
(** Attach an attribute to the innermost open span; no-op without a
    tracer (the value thunk is never forced). *)

val metric_incr : t -> ?by:int -> string -> unit

(** {1 Result caching} *)

val cache : t -> Cache.t option
val with_cache : t -> Cache.t -> t
val with_fresh_cache : t -> t
val without_cache : t -> t

val store_version : t -> int
(** {!Video_model.Store.version} of the context's store; 0 when
    store-less (precomputed tables are immutable). *)

val index : t -> Picture.Index.t option
(** The registry's finalized index for the context's store, level and
    current store version, building it on first use ([None] when
    store-less).  Thread-safe; counts [picture.index.builds] /
    [picture.index.registry_hits] on the context's metrics. *)

type stamp
(** A subformula's cache key (formula, level, extent partition) and the
    store version, read together. *)

val cache_stamp : t -> Htl.Ast.t -> stamp
(** Take the stamp {e before} evaluating the subformula, then probe and
    insert under it.  Reading the version after evaluating would file a
    result computed before a concurrent append under the post-append
    version, where later probes hit it; under the earlier stamp they
    replay the append and drop what it invalidates. *)

val cache_find : t -> Htl.Ast.t -> stamp -> Simlist.Sim_table.t option
(** Look up the subformula's table under the stamp's key and version.
    [None] (a recorded miss) when absent or caching is off. *)

val cache_add : t -> stamp -> Simlist.Sim_table.t -> unit
(** Insert a table evaluated after the stamp was taken. *)

val cache_stats : t -> Cache.stats option
