(* Load generation: closed-loop clients, each waiting for its reply
   before sending the next request, and an open-loop writer that sends
   on a fixed schedule whatever the server's pace.  Each client owns one
   keep-alive connection. *)

let now_ns = Monotonic_clock.now
let now () = Int64.to_float (now_ns ()) *. 1e-9

(* A growable float array: latencies recorded without per-sample
   allocation beyond the float itself. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 4096 0.; n = 0 }

let push s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let to_array s = Array.sub s.data 0 s.n

type result = {
  latency : samples;  (** seconds, successful requests sent in the window *)
  sent : samples;  (** seconds into the window each of those was sent *)
  lateness : samples;  (** open loop only: send time minus schedule *)
  mutable attempted : int;  (** every request sent, warm-up included *)
  mutable failed : int;  (** non-200, transport error or timeout *)
  mutable errors : string list;  (** the first few failure reasons *)
}

let result () =
  {
    latency = samples ();
    sent = samples ();
    lateness = samples ();
    attempted = 0;
    failed = 0;
    errors = [];
  }

let note_failure r msg =
  r.failed <- r.failed + 1;
  if List.length r.errors < 5 then r.errors <- msg :: r.errors

(* One request on the client's connection, reconnecting after a
   transport failure.  [on_reply] sees every 200 body. *)
let send r conn ~port raw ~on_reply =
  r.attempted <- r.attempted + 1;
  match
    let c = match !conn with Some c -> c | None -> Wire.connect port in
    conn := Some c;
    Wire.roundtrip c raw
  with
  | 200, body ->
      on_reply body;
      true
  | status, body ->
      note_failure r (Printf.sprintf "status %d: %s" status (String.trim body));
      (* the server closes after the statuses it synthesizes *)
      Option.iter Wire.close !conn;
      conn := None;
      false
  | exception Wire.Transport msg ->
      note_failure r msg;
      Option.iter Wire.close !conn;
      conn := None;
      Unix.sleepf 0.01;
      false

(* Closed loop: cycle [requests] from [offset] until [stop], recording
   the latency of every successful request sent in [window_start, stop). *)
let closed_loop ~port ~requests ~offset ~window_start ~stop ~on_reply =
  let r = result () in
  let conn = ref None in
  let n = Array.length requests in
  let rec go i =
    let t0 = now () in
    if t0 < stop then begin
      let idx = (offset + i) mod n in
      let ok = send r conn ~port requests.(idx) ~on_reply:(on_reply idx) in
      if ok && t0 >= window_start then begin
        push r.latency (now () -. t0);
        push r.sent (t0 -. window_start)
      end;
      go (i + 1)
    end
  in
  go 0;
  Option.iter Wire.close !conn;
  r

(* Open loop: request [i] is due at [start + i / rate].  Latency runs
   from the due time, so a stall is charged to every request it delays;
   [lateness] records how far behind schedule the sender itself ran. *)
let open_loop ~port ~requests ~rate ~start ~window_start ~stop ~on_reply =
  let r = result () in
  let conn = ref None in
  let rec go i =
    let due = start +. (float_of_int i /. rate) in
    if due < stop && i < Array.length requests then begin
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      let sent = now () in
      let ok = send r conn ~port requests.(i) ~on_reply:(on_reply i) in
      if due >= window_start then begin
        push r.lateness (sent -. due);
        if ok then begin
          push r.latency (now () -. due);
          push r.sent (due -. window_start)
        end
      end;
      go (i + 1)
    end
  in
  go 0;
  Option.iter Wire.close !conn;
  r
