(* The observability clock: the monotonic clock
   ([CLOCK_MONOTONIC] through [bechamel.monotonic_clock]'s stub) in
   float seconds, so spans keep nanosecond steps and a clock step (NTP
   slew) cannot skew them.  Its origin is arbitrary; [wall] maps a
   reading to epoch seconds with the offset taken when the source was
   installed, for the timestamps /slowlog and /trace report.

   The source lives behind a ref so the export golden tests and the
   slow-query-log threshold tests can substitute a deterministic clock
   (whose readings [wall] leaves as they are); production code never
   touches it and pays one pointer read. *)

let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let epoch_offset () = Unix.gettimeofday () -. monotonic ()
let source = ref monotonic
let offset = ref (epoch_offset ())
let now () = !source ()
let wall t = t +. !offset

let set_source f =
  source := f;
  offset := 0.

let use_monotonic_clock () =
  source := monotonic;
  offset := epoch_offset ()
