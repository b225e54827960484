(** The always-on statistics collector: aggregates the cost-based
    planner reads, updated lock-cheaply on {e every} request (sampled
    or not), unlike the threshold-gated {!Querylog} ring.

    Three families of aggregates:
    {ul
    {- per formula fingerprint — request/error counts, an EWMA of
       latency and windowed p50/p95/p99 from a fixed ring of recent
       samples;}
    {- per atomic formula and store level — observed pruning
       selectivity (index candidates ÷ level segments), the
       index-vs-scan signal;}
    {- per backend — request and error counts.}}

    The EWMA seeds at the first sample and then folds
    [ewma' = alpha·x + (1−alpha)·ewma]; quantiles use the nearest-rank
    convention of the bench harness.  Thread-safe (one internal mutex);
    memory is bounded by the number of distinct fingerprints/atoms,
    each O(window). *)

type t

val create : ?alpha:float -> ?window:int -> unit -> t
(** Defaults: [alpha = 0.2], [window = 64] recent samples per
    fingerprint.  @raise Invalid_argument when [alpha] is outside
    (0, 1] or [window < 1]. *)

val alpha : t -> float
val window : t -> int

val record_query :
  t ->
  fingerprint:int ->
  formula:(unit -> string) ->
  backend:string ->
  latency_s:float ->
  error:bool ->
  unit
(** Fold one request into the per-fingerprint and per-backend
    aggregates.  [formula] is a thunk, forced only the first time the
    fingerprint is seen.  An [error] request counts in the request and
    error counts only: its latency (when it failed, e.g. at a deadline)
    enters no latency EWMA or window, so the planner's backend signal
    ({!backend_latency_s}) measures successful evaluations. *)

val record_atom :
  t -> atom:string -> level:int -> candidates:int -> segments:int -> unit
(** Fold one atomic evaluation's pruning outcome: [candidates] index
    candidates out of [segments] segments at [level] (a full scan
    records [candidates = segments]).  No-op when [segments = 0]. *)

type query_row = {
  fingerprint : int;
  formula : string;
  count : int;
  errors : int;
  ewma_latency_s : float;
  p50_s : float;  (** nearest-rank over the retained window *)
  p95_s : float;
  p99_s : float;
  window_n : int;  (** samples currently in the window (≤ window) *)
}

type atom_row = {
  atom : string;
  level : int;
  evals : int;
  ewma_selectivity : float;
  candidates_total : int;
  segments_total : int;
}

type backend_row = { backend : string; requests : int; backend_errors : int }

val queries : t -> query_row list
(** Per-fingerprint rows, most-requested first. *)

val atoms : t -> atom_row list
(** Per-(atom, level) rows, most-evaluated first. *)

val backends : t -> backend_row list
(** Per-backend rows, sorted by name. *)

val ewma_latency_s : t -> fingerprint:int -> float option
(** Planner hook: the fingerprint's latency EWMA, [None] before any
    sample. *)

val selectivity : t -> level:int -> atom:string -> float option
(** Planner hook: the atom's observed-selectivity EWMA at a level. *)

val backend_latency_s : t -> fingerprint:int -> backend:string -> float option
(** Planner hook: the latency EWMA this fingerprint has shown on a
    specific backend ([None] before any sample) — the adaptive signal
    behind [backend:`Auto]. *)

val error_rate : t -> backend:string -> float option
(** Planner hook: the backend's error fraction. *)

val clear : t -> unit

val to_json : t -> Json.t
(** The [GET /stats] document: [queries], [atoms] and [backends] row
    arrays plus the collector's [alpha]/[window] configuration. *)
