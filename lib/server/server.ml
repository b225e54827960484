(* The socket layer: accept loop, bounded admission queue, worker
   threads, graceful shutdown.  Everything protocol-shaped lives in
   Http, everything route-shaped in Router; this module owns the file
   descriptors and the threads.

   Shutdown uses the self-pipe trick: [stop] writes one byte that is
   never consumed, so the pipe's read end stays level-triggered readable
   and every [Unix.select] — the accept loop's and each worker's
   keep-alive wait — wakes exactly once asked. *)

type config = {
  host : string;
  port : int;
  backlog : int;
  workers : int;
  queue_capacity : int;
  request_timeout_s : float;
  io_timeout_s : float;
  limits : Http.limits;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backlog = 64;
    workers = 4;
    queue_capacity = 64;
    request_timeout_s = 30.;
    io_timeout_s = 10.;
    limits = Http.default_limits;
  }

type conn = { fd : Unix.file_descr; enqueued_at : float }

type t = {
  config : config;
  state : Router.state;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stop_mutex : Mutex.t;
  mutable stopping : bool;
  queue : conn Queue.t;
  queue_mutex : Mutex.t;
  queue_nonempty : Condition.t;
  mutable threads : Thread.t list;
}

(* --- small Unix helpers ----------------------------------------------------- *)

let rec select_retry reads timeout =
  match Unix.select reads [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry reads timeout

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write the whole string; false when the peer is gone (EPIPE with
   SIGPIPE ignored, reset, or a send timeout). *)
let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | 0 -> false
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> false
  in
  go 0

let reader_of_fd fd =
  Http.reader (fun buf off len ->
      let rec go () =
        match Unix.read fd buf off len with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            raise Http.Read_timeout
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
      in
      go ())

(* --- responses the socket layer synthesizes itself -------------------------- *)

let error_body msg = Printf.sprintf "{\"error\": \"%s\"}\n" (Obs.Json.escape msg)

(* canned responses never pass through [Router.handle], so their
   status class is counted here; routed responses are counted by
   [handle] itself *)
let canned t ~status ?(headers = []) msg =
  Router.count_status t.state status;
  Http.response
    ~headers:(("Content-Type", "application/json") :: headers)
    ~status (error_body msg)

let send fd ?(keep_alive = false) resp =
  ignore (write_all fd (Http.to_string ~keep_alive resp))

(* --- connection handling ---------------------------------------------------- *)

let metrics_of t = Router.metrics t.state

let handle_request t fd reader =
  let cfg = t.config in
  match Http.read_request ~limits:cfg.limits reader with
  | Error Http.Closed -> `Close
  | Error Http.Timeout ->
      Obs.Metrics.incr (metrics_of t) "server.bad_requests";
      send fd (canned t ~status:408 "request timed out");
      `Close
  | Error (Http.Too_large what) ->
      Obs.Metrics.incr (metrics_of t) "server.bad_requests";
      send fd (canned t ~status:413 (what ^ " too large"));
      `Close
  | Error (Http.Bad msg) ->
      Obs.Metrics.incr (metrics_of t) "server.bad_requests";
      send fd (canned t ~status:400 msg);
      `Close
  | Ok req ->
      let keep = Http.keep_alive req && not t.stopping in
      let deadline = Obs.Clock.now () +. cfg.request_timeout_s in
      send fd ~keep_alive:keep (Router.handle ~deadline t.state req);
      if keep then `Keep else `Close

let serve_connection t conn =
  let fd = conn.fd in
  let cfg = t.config in
  Obs.Metrics.observe (metrics_of t) "server.queue_wait_s"
    (Obs.Clock.now () -. conn.enqueued_at);
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO cfg.io_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.io_timeout_s
   with Unix.Unix_error _ -> ());
  let reader = reader_of_fd fd in
  let rec loop () =
    (* wait for the next request — or the stop pipe, so an idle
       keep-alive connection never delays shutdown *)
    let ready = select_retry [ fd; t.stop_r ] cfg.io_timeout_s in
    if List.mem fd ready then
      match handle_request t fd reader with `Keep -> loop () | `Close -> ()
    else ()
    (* stop requested or idle past the timeout: close quietly *)
  in
  (try loop () with _ -> ());
  close_quietly fd

(* --- worker / accept loops -------------------------------------------------- *)

let set_queue_depth t =
  (* callers hold [queue_mutex], so the length is coherent *)
  Obs.Metrics.set_gauge (metrics_of t) "server.queue_depth"
    (float_of_int (Queue.length t.queue))

let worker_loop t =
  let rec next () =
    let job =
      Mutex.protect t.queue_mutex (fun () ->
          let rec wait () =
            if not (Queue.is_empty t.queue) then begin
              let job = Queue.pop t.queue in
              set_queue_depth t;
              Some job
            end
            else if t.stopping then None
            else begin
              Condition.wait t.queue_nonempty t.queue_mutex;
              wait ()
            end
          in
          wait ())
    in
    match job with
    | None -> ()
    | Some conn ->
        (* a connection still queued at shutdown is closed unserved;
           in-flight ones (already with a worker) finish *)
        if t.stopping then close_quietly conn.fd else serve_connection t conn;
        next ()
  in
  next ()

let try_enqueue t fd =
  Mutex.protect t.queue_mutex (fun () ->
      if t.stopping || Queue.length t.queue >= t.config.queue_capacity then
        false
      else begin
        Queue.push { fd; enqueued_at = Obs.Clock.now () } t.queue;
        set_queue_depth t;
        Condition.signal t.queue_nonempty;
        true
      end)

let reject t fd =
  Obs.Metrics.incr (metrics_of t) "server.rejected";
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1. with Unix.Unix_error _ -> ());
  send fd
    (canned t ~status:429 ~headers:[ ("Retry-After", "1") ] "server saturated");
  close_quietly fd

let accept_loop t =
  let rec loop () =
    let ready = select_retry [ t.listen_fd; t.stop_r ] (-1.) in
    if List.mem t.stop_r ready then ()
    else begin
      (match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
          Obs.Metrics.incr (metrics_of t) "server.connections";
          if not (try_enqueue t fd) then reject t fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle -------------------------------------------------------------- *)

let start ?(config = default_config) state =
  (* a worker writing to a half-closed socket must get EPIPE back, not
     kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.inet_addr_of_string config.host in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port));
     Unix.listen listen_fd config.backlog
   with e ->
     close_quietly listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      state;
      listen_fd;
      bound_port;
      stop_r;
      stop_w;
      stop_mutex = Mutex.create ();
      stopping = false;
      queue = Queue.create ();
      queue_mutex = Mutex.create ();
      queue_nonempty = Condition.create ();
      threads = [];
    }
  in
  let workers =
    List.init (max 1 config.workers) (fun _ -> Thread.create worker_loop t)
  in
  let acceptor = Thread.create accept_loop t in
  t.threads <- acceptor :: workers;
  t

let port t = t.bound_port

let stop t =
  Mutex.protect t.stop_mutex (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        (* the byte is never read: the pipe stays readable so every
           select — acceptor and workers alike — wakes *)
        ignore (Unix.write t.stop_w (Bytes.make 1 's') 0 1);
        Mutex.protect t.queue_mutex (fun () ->
            Condition.broadcast t.queue_nonempty)
      end)

let wait t =
  (* poll rather than park in Thread.join: a signal's OCaml handler only
     runs at a safe point, and with every thread blocked in C (join,
     select, condition wait) there is none — Thread.delay returns early
     on EINTR and gives the runtime one *)
  while not t.stopping do
    Thread.delay 0.1
  done;
  List.iter Thread.join t.threads;
  t.threads <- [];
  (* drain connections accepted but never dequeued *)
  Mutex.protect t.queue_mutex (fun () ->
      Queue.iter (fun c -> close_quietly c.fd) t.queue;
      Queue.clear t.queue);
  close_quietly t.listen_fd;
  close_quietly t.stop_r;
  close_quietly t.stop_w

let install_signal_handlers t =
  let handler _ = stop t in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle handler)
  with Invalid_argument _ -> ()
