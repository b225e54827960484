(** Request routing over a warm {!Htl_shard.Sharded} handle — one shard
    for an unsharded store, so every deployment answers through the same
    path: the pure core of the server — an {!Http.request} in, an {!Http.response} out, no sockets
    — so every route, status code and wire-format corner is unit-testable
    in memory.

    Routes:
    - [POST /query] — one HTL query (JSON body, {!query_req}) → ranked
      segments as JSON, or an EXPLAIN plan with [explain: true];
    - [POST /batch] — many queries through {!Htl_shard.Sharded.run_batch},
      per-query error isolation (one bad query yields an error slot,
      never a failed batch; only the request's deadline fails the
      whole batch, see {!handle});
    - [GET /metrics] — Prometheus text exposition of the state's
      registry, with the [cache.words] gauge (words the shard caches
      keep resident, {!Engine.Cache.stats}) read at the scrape;
    - [GET /slowlog] — the slow-query ring as JSONL;
    - [GET /stats] — the always-on {!Obs.Stats} collector as JSON:
      per-fingerprint EWMA latency and windowed quantiles, per-atom
      observed selectivity, per-backend error rates, and
      [cache.words] as on [/metrics];
    - [GET /trace] — retained trace summaries (JSON array);
    - [GET /trace/<id>] — one retained trace as Chrome trace-event
      JSON;
    - [GET /healthz] — liveness probe, ["ok"].

    Every request gets a trace id — the client's ([X-Trace-Id] bare, or
    a W3C [traceparent]) when well-formed, a fresh one otherwise — and
    the response always answers with an [X-Trace-Id] header.  Sampled
    requests (see {!make}'s [trace_sample]/[trace_slow_s]) additionally
    run under a private per-request tracer whose frozen span tree lands
    in the {!Obs.Tracestore} ring; everything else stays on the
    zero-cost nil-tracer path.

    The handle is shared by every concurrent request: its caches,
    index registries, hash-consing table and metrics are all thread-safe
    (DESIGN.md §2.13, §2.17), so the router takes no lock of its own —
    the per-request tracer is reached only through a request-scoped
    view ({!Htl_shard.Sharded.for_request}, DESIGN.md §2.20). *)

(** {1 Wire format} *)

type query_req = {
  q : string;  (** the HTL query text (JSON field ["query"]) *)
  level : int option;
      (** hierarchy level to assert on; requires a store-backed dataset *)
  k : int;  (** how many segments to return (default 10) *)
  backend : Engine.Query.backend;
  explain : bool;  (** return the static evaluation plan instead *)
}

val default_k : int

val query_req_to_json : query_req -> Obs.Json.t
val query_req_of_json : Obs.Json.t -> (query_req, string) result

val results_to_json : (int * Simlist.Sim.t) list -> Obs.Json.t
(** The ranked-segments array: one object per segment with [id], [sim]
    (the actual value), [max] and [fraction]. *)

val results_of_json :
  Obs.Json.t -> ((int * Simlist.Sim.t) list, string) result
(** Inverse of {!results_to_json} ([fraction] is derived and ignored);
    gives the tests and clients a typed view of a response. *)

(** {1 State} *)

type state

val make :
  ?metrics:Obs.Metrics.t ->
  ?querylog:Obs.Querylog.t ->
  ?stats:Obs.Stats.t ->
  ?tracestore:Obs.Tracestore.t ->
  ?trace_sample:int ->
  ?trace_slow_s:float ->
  ?sharded:Htl_shard.Sharded.t ->
  Engine.Context.t ->
  state
(** Wrap a context for serving: attach [metrics] (fresh by default),
    [querylog] (fresh, threshold 100 ms, by default) and [stats] (fresh
    by default — the collector is always on) to it and pre-register
    every [server.*] series (see {!preregister}) so the exposition is
    stable from the first scrape.  Attach a domain pool to the context
    before calling when parallel evaluation is wanted.

    [trace_sample] samples 1 in N requests (deterministic counter over
    all requests; default 0 = never) into a per-request tracer retained
    in [tracestore] (fresh, capacity 64, by default).  [trace_slow_s]
    additionally traces {e every} request but retains the tree only
    when the request takes at least that many seconds — the retroactive
    slow-trace net.  The two compose; with neither, requests stay on
    the nil-tracer path.
    @raise Invalid_argument when [trace_sample < 0] or
    [trace_slow_s < 0].

    Without [sharded], the state evaluates through
    {!Htl_shard.Sharded.of_context} over the context (the store is
    wrapped, not copied).  When [sharded] is given, it is the handle
    instead and the context is not used; it should have been created
    with the same [metrics], [querylog] and [stats] so [/metrics],
    [/slowlog] and [/stats] keep reporting it. *)

val context : state -> Engine.Context.t
(** Shard 0's context. *)

val sharded : state -> Htl_shard.Sharded.t option
(** [Some] of the state's only evaluation handle. *)

val metrics : state -> Obs.Metrics.t
val querylog : state -> Obs.Querylog.t
val stats : state -> Obs.Stats.t
val tracestore : state -> Obs.Tracestore.t

val preregister : Obs.Metrics.t -> unit
(** Register the [server.*] counters ([connections], [requests],
    [responses.2xx/4xx/5xx], [rejected], [timeouts], [bad_requests],
    [ingested], [traced]), gauges ([queue_depth], [active_requests])
    and histograms ([request_latency_s], [queue_wait_s]) at zero. *)

val count_status : state -> int -> unit
(** Bump the [server.responses.<class>] counter for a status code — the
    socket layer uses this for responses it synthesizes itself (429,
    protocol errors). *)

val handle : ?deadline:float -> state -> Http.request -> Http.response
(** Dispatch one request: counts [server.requests], observes
    [server.request_latency_s], counts the response's status class,
    tracks [server.active_requests], resolves the trace id and answers
    with it in [X-Trace-Id], and — when the request is sampled or ends
    up past the slow threshold — freezes its span tree into the trace
    ring.  Never raises — unexpected evaluator exceptions become a
    500.

    [deadline] ({!Obs.Clock.now} seconds; none by default) rides every
    shard context of the request ({!Htl_shard.Sharded.for_request}).
    Query evaluation ([/query], [/batch]) checks it at each evaluator
    node and stops past it: the whole request answers
    [503 "query timed out"] and counts [server.timeouts].  [/ingest]
    and the read-only routes evaluate nothing and never time out. *)
