(** The long-running query service: a TCP accept loop and a pool of
    connection worker threads around one warm {!Router.state}.

    Threading model (DESIGN.md §2.17): systhreads handle the sockets —
    they interleave around blocking [read]/[write], which is all a
    server spends its time on — while CPU-parallel evaluation stays
    with the domain pool attached to the engine context.  The shared
    context's cache, hash-consing table, index registry and metrics are
    thread-safe, so concurrent requests need no server-level lock.

    Robustness:
    - {b admission control} — at most [queue_capacity] accepted
      connections may wait for a worker; beyond that the accept loop
      answers [429 Too Many Requests] with [Retry-After: 1] and closes
      ([server.rejected]);
    - {b per-request deadline} — each request carries a deadline of
      its read time plus [request_timeout_s] into its evaluation
      ({!Router.handle}); the worker that read the request evaluates
      it, and the evaluators check the deadline at every node, so past
      it the evaluation stops and the client gets [503].  A request
      overruns its deadline by at most one step between checks (one
      atom's picture scan, one SQL statement, one list kernel or the
      shard gather).  The server starts no thread per request;
      [/ingest] has no check, so an append that ran is always
      answered;
    - {b io timeouts} — reads and writes carry [io_timeout_s] (socket
      timeouts); an idle keep-alive connection is closed quietly, a
      stall mid-request answers [408];
    - {b size limits} — {!Http.limits} cap the header block and body
      ([413]);
    - {b graceful shutdown} — {!stop} (or SIGINT/SIGTERM after
      {!install_signal_handlers}) stops accepting, lets in-flight
      requests finish, closes idle and queued connections, and lets
      {!wait} return. *)

type config = {
  host : string;  (** bind address (default ["127.0.0.1"]) *)
  port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
  backlog : int;  (** [listen] backlog (default 64) *)
  workers : int;  (** connection worker threads (default 4) *)
  queue_capacity : int;
      (** accepted connections allowed to wait for a worker (default 64);
          beyond it: 429 *)
  request_timeout_s : float;
      (** how long [/query] and [/batch] evaluation may run past the
          request's read (default 30.); [<= 0] answers every query with
          503 at its first check *)
  io_timeout_s : float;
      (** socket read/write timeout and keep-alive idle limit
          (default 10.) *)
  limits : Http.limits;
}

val default_config : config

type t

val start : ?config:config -> Router.state -> t
(** Bind, listen and spawn the accept loop plus [workers] worker
    threads; returns once the socket is live (so {!port} is valid).
    @raise Unix.Unix_error when the bind fails (port taken, bad host). *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was 0. *)

val stop : t -> unit
(** Begin shutdown: one byte down the stop pipe wakes the accept loop
    and every worker wait.  Idempotent, safe from a signal handler;
    returns without waiting — follow with {!wait}. *)

val wait : t -> unit
(** Block until the accept loop and all workers have exited (after
    {!stop}, or a signal once {!install_signal_handlers} is in place),
    then release the listening socket. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!stop} for a graceful exit. *)
