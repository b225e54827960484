(** Metrics registry: named counters, gauges and histograms.

    Instruments register lazily — the first [incr]/[set_gauge]/[observe]
    under a name creates it; a name keeps its kind for the registry's
    lifetime ([Invalid_argument] on a mismatched reuse).  Thread-safe
    (one internal mutex).  Like the tracer, evaluation code holds a
    [Metrics.t option] and [None] is the zero-cost no-op path. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Bump a counter (created at 0). *)

val declare_counter : t -> string -> unit
(** Register the counter at 0 without bumping it, so the series appears
    in every exposition from the first scrape (see
    {!Export.prometheus}).  Idempotent; [Invalid_argument] when the name
    is already registered with another kind. *)

val declare_gauge : t -> string -> unit
(** Register the gauge at 0 without setting it — same contract as
    {!declare_counter}. *)

val declare_histogram : t -> string -> unit
(** Register an empty histogram (count 0, all buckets 0) under the
    shared {!bucket_bounds}.  Idempotent; [Invalid_argument] on a kind
    mismatch. *)

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit
(** Record a histogram sample: count/sum/min/max plus one of the fixed
    {!bucket_bounds} buckets. *)

val bucket_bounds : float array
(** The fixed log-spaced bucket upper bounds every histogram shares —
    √10 apart (two per decade) from [1e-6] to [3160], chosen for
    latencies in seconds but serviceable for any positive sample; an
    implicit overflow bucket catches the rest.  Literal values, so
    Prometheus [le] labels are stable strings. *)

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) array;
      (** (upper bound, samples in that bucket) — per-bucket counts, not
          cumulative; the last bound is [infinity] (overflow).  The
          Prometheus exposition ({!Export.prometheus}) accumulates. *)
}

type value = Counter of int | Gauge of float | Histogram of histogram

val snapshot : t -> (string * value) list
(** A coherent copy of every instrument, sorted by name. *)

val find : t -> string -> value option

val counter_value : t -> string -> int
(** The counter's value; 0 when absent or not a counter. *)

val counters : t -> (string * int) list
(** Every counter and its value, sorted by name; no gauge or histogram
    is copied. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds each of [src]'s counters to [into]'s counter
    of the same name (created when absent), under one acquisition of
    [into]'s lock; [src]'s gauges and histograms are left out.  The
    query envelope counts each query in a registry of its own and
    merges it into the shared one when the query ends.
    @raise Invalid_argument when [into] holds one of the names as
    another kind. *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
(** Render the snapshot as a two-column table. *)

val pp_value : Format.formatter -> value -> unit
