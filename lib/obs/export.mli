(** Machine-readable telemetry export: Prometheus text exposition for
    {!Metrics}, JSONL and Chrome trace-event JSON for {!Trace} spans.

    Everything renders from the public snapshots ({!Metrics.snapshot},
    {!Trace.spans}); no lock is held beyond the snapshot itself. *)

val prometheus : Metrics.t -> string
(** Prometheus text format v0.0.4: one [# TYPE] comment plus samples
    per instrument, sorted by name.  Dot-separated metric names map to
    legal Prometheus names by replacing every byte outside
    [[a-zA-Z0-9_:]] with ['_'] (e.g. [query.latency_s] →
    [query_latency_s]).  Histograms expose cumulative [_bucket{le="…"}]
    series over {!Metrics.bucket_bounds} plus [+Inf], [_sum] and
    [_count]. *)

val span_json : ?trace_id:string -> Trace.span -> Json.t
(** One span as JSON: [id], [parent], [name], [start_s], [stop_s]
    ([null] while open) and [attrs] (insertion order, duplicates
    preserved), led by a [trace_id] field when one is given.  The times
    are {!Clock.wall} timestamps, seconds since the epoch, the time base
    of the query log and the trace store. *)

val spans_jsonl : Trace.t -> string
(** Every recorded span as one compact JSON object per line, in start
    order; each line carries the tracer's {!Trace.trace_id} when
    set. *)

val chrome_trace_json_of_spans : ?trace_id:string -> Trace.span list -> Json.t
(** A span list as Chrome trace-event JSON (a [traceEvents] array of
    complete ["ph":"X"] events, microsecond timestamps relative to the
    earliest span) — loadable at {{:https://ui.perfetto.dev}Perfetto}
    or [chrome://tracing].  A span still open at export time gets its
    elapsed time so far and an ["open"] arg.  [trace_id] is stamped at
    the top level and into every event's [args] — this is how a frozen
    {!Tracestore} entry renders. *)

val chrome_trace_of_spans : ?trace_id:string -> Trace.span list -> string
(** {!chrome_trace_json_of_spans}, compactly serialized — the
    [GET /trace/<id>] body. *)

val chrome_trace_json : Trace.t -> Json.t
(** {!chrome_trace_json_of_spans} over a live tracer's spans and
    {!Trace.trace_id}. *)

val chrome_trace : Trace.t -> string
(** {!chrome_trace_json}, compactly serialized. *)

val write_file : string -> string -> unit
(** Write a string to a path (truncating) — the CLI's export helper. *)
