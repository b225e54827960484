(** Time source for spans and queue-wait measurements. *)

val now : unit -> float
(** Seconds on the monotonic clock, at nanosecond resolution, from an
    arbitrary origin: differences are elapsed times. *)

val wall : float -> float
(** [wall (now ())] is the time since the epoch, in seconds: the
    timestamp of a reading. *)

val set_source : (unit -> float) -> unit
(** Substitute the time source — for tests that need deterministic
    timestamps (export goldens, slow-query-log thresholds); [wall] then
    returns its readings unchanged.  Not synchronized; swap only while
    no spans are being recorded. *)

val use_monotonic_clock : unit -> unit
(** Restore the default monotonic source. *)
