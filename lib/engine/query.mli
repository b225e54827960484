(** The unified retrieval entry point: parse → classify → dispatch to the
    class-specific algorithm → rank (figure 1's architecture). *)

exception Error of string

type backend =
  | Direct_backend  (** the §3 interval-list / table algorithms *)
  | Sql_backend_choice  (** translation to SQL over {!Relational} *)
  | Auto_backend
      (** let the cost-based planner pick per query: observed
          per-(fingerprint, backend) latency EWMAs when both backends
          have run the formula, static cost estimates otherwise
          ({!Planner.choose_backend}).  Resolved once per query by
          {!envelope}, against the plan of the context it is given (a
          sharded coordinator's shard 0), so every shard runs the same
          backend; with planning off ({!Context.without_planner}) it
          falls back to the direct backend.  {!explain}'s report says
          what was picked and why. *)

val backend_name : backend -> string
(** ["direct"], ["sql"] or ["auto"] — the wire, CLI and stats name. *)

val backend_of_name : string -> (backend, string) result
(** Inverse of {!backend_name}; the error names the accepted values. *)

val classify : Htl.Ast.t -> Htl.Classify.cls

val dispatch :
  backend:backend ->
  Context.t ->
  Htl.Classify.cls ->
  Htl.Ast.t ->
  Simlist.Sim_list.t
(** The class dispatcher {!run} sits on: evaluate an already-classified
    formula with no per-query envelope (no [query.count], latency
    histogram or slow-log record).  [Htl_shard]'s coordinator runs it on
    every shard inside one {!envelope}, so a scatter over N shards still
    counts as {e one} query; everyone else wants {!run}.
    @raise Error as {!run} does. *)

val envelope :
  backend:backend ->
  Context.t ->
  Htl.Ast.t ->
  (Context.t -> Htl.Classify.cls -> backend -> 'a * (int * float) list) ->
  'a
(** [envelope ~backend ctx f eval] is the one per-query envelope, for a
    bare context and a sharded coordinator alike: classify [f], plan it
    on [ctx], resolve [Auto_backend] once, and call [eval] with the
    planned context, the class and the concrete backend.  [eval] answers
    with the result and the per-shard latencies ([(ordinal, seconds)];
    [[]] for a bare context).

    When [ctx] carries a tracer, metrics, a querylog or stats, the call
    is observed (see {e Observability} below): a ["query.run"] span
    around [eval], the query counters and histograms, the {!Obs.Stats}
    fold and the slow-log record — all naming the concrete backend, the
    record's [shards] field holding [eval]'s latencies.  With metrics or
    a querylog attached, the planned context [eval] gets carries a fresh
    registry of this query's own in its [metrics] field; [eval] must
    evaluate every shard under that registry.  The record's cache and
    scan counts are read from it, and its counters are added to
    [ctx]'s registry once the query ends.
    @raise Error on unsupported formulas, and whatever [eval] raises. *)

val run :
  ?backend:backend -> Context.t -> Htl.Ast.t -> Simlist.Sim_list.t
(** Evaluate a closed formula of any supported class over the context's
    level.  The direct backend runs every class, type (1) included,
    through the table algorithms ({!Direct.eval_closed}).  The SQL
    backend runs the paper's §4 translation on type (1) formulas and
    SQL list merges under the table bookkeeping otherwise, under the
    weighted-sum conjunction only ({!Sql_backend.supports}).
    @raise Error on general formulas, open formulas, or backend
    limitations — the message says which. *)

val run_string :
  ?backend:backend -> Context.t -> string -> Simlist.Sim_list.t
(** Parse then {!run}. *)

val run_observed :
  backend:backend -> Context.t -> Htl.Ast.t -> Simlist.Sim_list.t
(** {!run} with a required backend: both go through {!envelope}, which
    observes whatever the context carries.
    @raise Error as {!run} does. *)

val run_batch :
  ?backend:backend ->
  ?pool:Parallel.Pool.t ->
  Context.t ->
  Htl.Ast.t list ->
  (Simlist.Sim_list.t, string) result list
(** Evaluate a batch of independent closed formulas, one result per
    formula in order.  A query that would raise {!Error} yields [Error
    msg] instead — one bad query never aborts the batch.

    With a pool ([?pool] if given, else the context's), the queries fan
    out across the domains, and the same pool serves each query's
    internal parallel scans; the shared subformula cache lets concurrent
    queries reuse each other's intermediate tables (see DESIGN.md
    §2.13).  Without a pool the batch runs sequentially. *)

val run_with_fallback : Context.t -> Htl.Ast.t -> Simlist.Sim_list.t
(** Like {!run} with the direct backend, but formulas outside the
    extended-conjunctive fragment (negation, disjunction, free temporal
    quantification) fall back to the exact boolean semantics of §2.3: a
    segment scores [(1, 1)] when it satisfies the formula and [(0, 1)]
    otherwise.  This implements the §5 future-work item "extension of the
    above methods to the full language" in its simplest sound form; it
    requires a video store.
    @raise Error when the fallback is needed but no store is available,
    or the formula is open. *)

val top_k :
  ?backend:backend ->
  Context.t ->
  k:int ->
  string ->
  (int * Simlist.Sim.t) list
(** The end-to-end user operation: parse, evaluate, return the k best
    segments. *)

(** {1 Observability}

    {!run} records a ["query.run"] span when the context carries a
    tracer, and — when it carries metrics — the ["query.count"] /
    ["query.errors"] counters and the ["query.latency_s"] /
    ["query.allocated_words"] histograms.  Any observed run (tracer,
    metrics or querylog attached) also takes a {!Obs.Resource} GC delta:
    it rides the span as [gc.*] attributes and lands in the slow-query
    log.  When the context carries a {!Obs.Querylog.t}
    ({!Context.with_querylog}), queries whose latency crosses its
    threshold append a structured record (formula fingerprint, backend,
    class, latency, this query's cache hits and misses and per-level
    [picture.segments_scanned.*] counts, allocation delta, per-shard
    latencies when a sharded coordinator ran it, and the error message
    if the query failed).  The counters reach the context's metrics
    when the query ends, not while it runs.  Without any of
    them the fast path runs classify, plan and dispatch only.

    The direct backend memoizes subformula tables in the context's
    {!Cache} (see DESIGN.md, "Caching & invalidation").  The counters
    tell how a workload is behaving: repeated or overlapping queries
    should show hits climbing; evictions signal an undersized cache. *)

val explain :
  ?backend:backend -> ?analyze:bool -> Context.t -> Htl.Ast.t -> Explain.report
(** The evaluation tree {!run} would walk: chosen backend, formula
    class, one node per subformula.  With [~analyze:true] the query
    actually runs under a private tracer (the context's own tracer is
    untouched) and the report carries per-node wall times, recorded
    attributes (row counts, an And chain's join order), the
    whole-query total — and, on the SQL backend, the executed script as
    {!Relational.Plan} operator trees.  Nodes served by a warm
    subformula cache show as cached.
    @raise Error as {!run} does. *)

val explain_string :
  ?backend:backend -> ?analyze:bool -> Context.t -> string -> Explain.report
(** Parse then {!explain}. *)

val cache_stats : Context.t -> Cache.stats option
(** Hit/miss/eviction counters and occupancy of the context's cache;
    [None] when caching is disabled ({!Context.without_cache}). *)

val reset_cache_stats : Context.t -> unit
(** Zero the counters (entries stay) — for per-phase measurements. *)
