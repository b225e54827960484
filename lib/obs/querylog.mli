(** The slow-query log: a thread-safe fixed-capacity ring of structured
    records for queries whose latency crossed a threshold.

    {!Engine.Query.run} feeds it when the context carries one
    ({!Engine.Context.with_querylog}): per query, the hash-consed
    formula fingerprint, backend, formula class, latency, cache
    hits and misses, per-level [picture.segments_scanned.*] counts
    and the GC allocation delta
    — everything needed to triage a slow query after the fact.  New
    records overwrite the oldest once the ring is full, so the log
    cannot grow without bound. *)

type record = {
  time_s : float;  (** wall clock at query start *)
  formula_id : int;  (** {!Htl.Hcons.intern_id} fingerprint *)
  formula : string;
  backend : string;
  cls : string;
  latency_s : float;
  cache_hits : int;  (** cache probes this query, not cumulative *)
  cache_misses : int;
  segments_scanned : (string * int) list;
      (** this query's per-level scan counts, e.g.
          [("picture.segments_scanned.l2", 180)] *)
  resources : Resource.delta;
  shards : (int * float) list;
      (** per-shard latency seconds, keyed by shard ordinal — one pair
          per shard of the handle that ran the query (so one for an
          unsharded deployment), skew visible in the log; empty only
          for a bare {!Engine.Query.run} *)
  trace_id : string option;
      (** the request's end-to-end id ({!Traceid}) when the query ran
          under the service — joins this record to its span tree in
          {!Tracestore} and to the [X-Trace-Id] response header *)
  error : string option;
}

type t

val create : ?capacity:int -> threshold_s:float -> unit -> t
(** Default capacity 128 records.  [threshold_s 0.] logs every query.
    @raise Invalid_argument when [capacity < 1]. *)

val threshold_s : t -> float
val capacity : t -> int

val should_log : t -> latency_s:float -> bool
(** The gate, exposed so callers can skip building a record (formula
    pretty-printing, listing the query's counters) for fast queries. *)

val record : t -> record -> unit
(** Append when [r.latency_s] crosses the threshold; drop otherwise. *)

val records : t -> record list
(** Retained records, oldest first. *)

val length : t -> int
(** Retained records (≤ capacity). *)

val logged : t -> int
(** Total records ever accepted, including overwritten ones. *)

val clear : t -> unit

val hit_ratio : record -> float
(** [hits / (hits + misses)]; 0 when the query never probed the cache. *)

val to_json : record -> Json.t

val to_jsonl : t -> string
(** One compact JSON object per line, oldest first — the export
    format. *)
