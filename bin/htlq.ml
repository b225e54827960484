(* htlq — query videos with HTL from the command line.

   Examples:
     dune exec bin/htlq.exe -- --dataset casablanca \
       --query 'man_woman and eventually moving_train' --top 5
     dune exec bin/htlq.exe -- --dataset gulf --level 1 \
       --query 'at scene level (seg.name = "takeoff")'
     dune exec bin/htlq.exe -- --synthetic 1000 --seed 42 --backend sql \
       --query 'p1 until p2'
     dune exec bin/htlq.exe -- --explain --trace \
       --query 'man_woman and moving_train'

   Results go to stdout; diagnostics (errors, --trace spans, --metrics
   tables) go to stderr.  Exit codes: 0 success, 1 query/evaluation
   error, 2 usage error. *)

open Cmdliner

let exit_ok = 0
let exit_query_error = 1
let exit_usage = 2

type dataset =
  | Casablanca
  | Casablanca_store
  | Gulf
  | Synthetic of int
  | Store_file of string
  | Tables_file of string

module Sharded = Htl_shard.Sharded

(* Datasets --shards and snapshot save can partition: the sharded store
   needs the actual video store, not similarity tables. *)
let store_of_dataset = function
  | Casablanca_store -> Some (Workload.Casablanca.store ())
  | Gulf -> Some (Workload.Gulf_war.store ())
  | Store_file path -> Some (Storage.Io.load_store path)
  | Casablanca | Synthetic _ | Tables_file _ -> None

let store_required =
  "--shards and snapshots require a store-backed dataset \
   (casablanca-store, gulf, or --load-store)"

let make_context dataset seed level threshold =
  match dataset with
  | Casablanca ->
      let ctx = Workload.Casablanca.context () in
      Engine.Context.with_fresh_cache { ctx with Engine.Context.threshold }
  | Casablanca_store ->
      Engine.Context.of_store ~threshold ?level
        (Workload.Casablanca.store ())
  | Gulf -> Engine.Context.of_store ~threshold ?level (Workload.Gulf_war.store ())
  | Synthetic n ->
      let ctx =
        Workload.Synthetic.context_with_atoms ~seed ~n [ "p1"; "p2"; "p3" ]
      in
      Engine.Context.with_fresh_cache { ctx with Engine.Context.threshold }
  | Store_file path ->
      Engine.Context.of_store ~threshold ?level (Storage.Io.load_store path)
  | Tables_file path ->
      let tables = Storage.Io.load_tables path in
      let n =
        List.fold_left
          (fun acc (_, t) ->
            List.fold_left
              (fun acc (r : Simlist.Sim_table.row) ->
                List.fold_left
                  (fun acc (iv, _) -> max acc (Simlist.Interval.hi iv))
                  acc
                  (Simlist.Sim_list.entries r.list))
              acc
              (Simlist.Sim_table.rows t))
          1 tables
      in
      Engine.Context.of_tables ~threshold ~n tables

(* The one evaluation handle every command answers through: a
   snapshot, an N-shard partition of a store-backed dataset, or — for
   everything else — a one-shard wrap of the dataset's context, which
   shares its store rather than copying it. *)
let open_handle (dataset, seed, level, threshold, shards, snapshot) ?config
    ?pool ?metrics ?querylog ?stats () =
  match snapshot with
  | Some path ->
      Sharded.load_snapshot ?config ~threshold ?level ?pool ?metrics ?querylog
        ?stats path
  | None when shards > 1 -> (
      match store_of_dataset dataset with
      | Some store ->
          Sharded.create ~shards ?config ~threshold ?level ?pool ?metrics
            ?querylog ?stats store
      | None -> failwith store_required)
  | None ->
      let attach with_ opt ctx =
        match opt with Some x -> with_ ctx x | None -> ctx
      in
      make_context dataset seed level threshold
      |> attach
           (fun ctx config -> { ctx with Engine.Context.picture_config = config })
           config
      |> attach (fun ctx p -> Engine.Context.with_pool ctx p) pool
      |> attach Engine.Context.with_metrics metrics
      |> attach Engine.Context.with_querylog querylog
      |> attach Engine.Context.with_stats stats
      |> Sharded.of_context

(* Diagnostics requested with --trace / --metrics, flushed to stderr
   after the query so stdout carries results only. *)
let emit_diagnostics tracer metrics =
  Option.iter
    (fun tr -> Format.eprintf "@[<v>trace:@,%a@]@." Obs.Trace.pp_tree tr)
    tracer;
  Option.iter
    (fun m -> Format.eprintf "@[<v>metrics:@,%a@]@." Obs.Metrics.pp m)
    metrics

(* Machine-readable exports requested with --prom / --trace-out /
   --slow-ms, emitted after the query on success and error paths alike
   (a failed query's telemetry is the interesting kind). *)
let emit_exports ~prom ~trace_out tracer registry querylog =
  (match (prom, registry) with
  | Some path, Some m -> Obs.Export.write_file path (Obs.Export.prometheus m)
  | _ -> ());
  (match (trace_out, tracer) with
  | Some path, Some tr ->
      Obs.Export.write_file path (Obs.Export.chrome_trace tr)
  | _ -> ());
  Option.iter (fun ql -> prerr_string (Obs.Querylog.to_jsonl ql)) querylog

let print_result cls top result =
  Format.printf "formula class: %s@." (Htl.Classify.cls_to_string cls);
  Format.printf "@.%a@." (Engine.Topk.pp_table ?header:None) result;
  Format.printf "@.top %d segments:@." top;
  List.iter
    (fun (id, sim) ->
      Format.printf "  segment %d: %.4f (fraction %.3f)@." id
        (Simlist.Sim.actual sim) (Simlist.Sim.fraction sim))
    (Engine.Topk.top_k result ~k:top)

let run args backend query top classify_only explain trace metrics prom
    trace_out slow_ms no_index =
  match Htl.Parser.formula_of_string_opt query with
  | Error msg ->
      Format.eprintf "syntax error: %s@." msg;
      exit_query_error
  | Ok f -> (
      let cls = Htl.Classify.classify f in
      if classify_only then begin
        Format.printf "formula class: %s@." (Htl.Classify.cls_to_string cls);
        exit_ok
      end
      else
        match Engine.Query.backend_of_name backend with
        | Error msg ->
            Format.eprintf "%s@." msg;
            exit_usage
        | Ok backend -> (
            let tracer =
              if trace || Option.is_some trace_out then
                Some (Obs.Trace.create ())
              else None
            in
            let registry =
              (* --slow-ms wants metrics too: the slow-query log's
                 per-level scan deltas come from the registry *)
              if metrics || Option.is_some prom || Option.is_some slow_ms then
                Some (Obs.Metrics.create ())
              else None
            in
            let querylog =
              Option.map
                (fun ms -> Obs.Querylog.create ~threshold_s:(ms /. 1000.) ())
                slow_ms
            in
            (* the stderr tables stay opt-in: a registry or tracer that
               exists only to feed an export should not print; EXPLAIN
               ANALYZE already renders the timings the tree would *)
            let shown_tracer = if trace && not explain then tracer else None in
            let shown_registry = if metrics then registry else None in
            let config =
              if no_index then
                Some
                  {
                    Picture.Retrieval.default_config with
                    Picture.Retrieval.prune = false;
                  }
              else None
            in
            match
              open_handle args ?config ?metrics:registry ?querylog ()
            with
            | exception Storage.Snapshot.Snapshot_error e ->
                Format.eprintf "snapshot error: %s@."
                  (Storage.Snapshot.error_to_string e);
                exit_query_error
            | exception Sys_error msg ->
                Format.eprintf "error: %s@." msg;
                exit_query_error
            | exception Failure msg ->
                Format.eprintf "%s@." msg;
                exit_usage
            | sh ->
                let sh = Sharded.for_request ?tracer sh in
                let answer () =
                  if explain then
                    (* --trace upgrades the explain to an analyzed run:
                       the query executes and the tree carries per-node
                       timings *)
                    Format.printf "%s@?"
                      (Sharded.explain ~backend ~analyze:trace sh f)
                  else print_result cls top (Sharded.run ~backend sh f)
                in
                let code =
                  match answer () with
                  | () -> exit_ok
                  | exception Engine.Query.Error msg ->
                      Format.eprintf "error: %s@." msg;
                      exit_query_error
                in
                emit_diagnostics shown_tracer shown_registry;
                emit_exports ~prom ~trace_out tracer registry querylog;
                code))

let dataset_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "casablanca" -> Ok Casablanca
    | "casablanca-store" -> Ok Casablanca_store
    | "gulf" -> Ok Gulf
    | other -> (
        match int_of_string_opt other with
        | Some _ -> Error (`Msg "use --synthetic N for synthetic data")
        | None -> Error (`Msg (Printf.sprintf "unknown dataset %S" other)))
  in
  let print ppf = function
    | Casablanca -> Format.pp_print_string ppf "casablanca"
    | Casablanca_store -> Format.pp_print_string ppf "casablanca-store"
    | Gulf -> Format.pp_print_string ppf "gulf"
    | Synthetic n -> Format.fprintf ppf "synthetic:%d" n
    | Store_file path -> Format.fprintf ppf "store:%s" path
    | Tables_file path -> Format.fprintf ppf "tables:%s" path
  in
  Arg.conv (parse, print)

(* --- argument terms shared between the subcommands -------------------------- *)

let dataset_t =
  Arg.(
    value
    & opt dataset_arg Casablanca
    & info [ "dataset" ] ~docv:"NAME"
        ~doc:
          "Dataset: casablanca (the paper's Tables 1-2 as input), \
           casablanca-store (meta-data reconstruction), gulf (the \
           4-level Gulf-war video).")

let synthetic_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "synthetic" ] ~docv:"N"
        ~doc:"Use N random segments with atomic predicates p1, p2, p3.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let level_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "level" ] ~docv:"L"
        ~doc:"Hierarchy level the query is asserted on (default: leaves).")

let threshold_t =
  Arg.(
    value & opt float 0.5
    & info [ "threshold" ] ~doc:"Fractional until-threshold.")

let load_store_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "load-store" ] ~docv:"FILE"
        ~doc:"Load a video store saved by the storage library.")

let load_tables_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "load-tables" ] ~docv:"FILE"
        ~doc:"Load a bundle of atomic similarity tables.")

let shards_t =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the store into N shards with scatter-gather \
           evaluation (store-backed datasets only; 1 keeps the store \
           unsharded).")

let snapshot_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Load a binary snapshot written by $(b,htlq snapshot save) — \
           stores and finalized indexes, no rebuild — instead of a \
           dataset (overrides --dataset and --shards).")

(* (dataset, seed, level, threshold, shards, snapshot), with --synthetic
   / --load-store / --load-tables taking precedence over --dataset *)
let context_args_t =
  let combine dataset synthetic load_store load_tables seed level threshold
      shards snapshot =
    let dataset =
      match (synthetic, load_store, load_tables) with
      | Some n, _, _ -> Synthetic n
      | None, Some path, _ -> Store_file path
      | None, None, Some path -> Tables_file path
      | None, None, None -> dataset
    in
    (dataset, seed, level, threshold, shards, snapshot)
  in
  Term.(
    const combine $ dataset_t $ synthetic_t $ load_store_t $ load_tables_t
    $ seed_t $ level_t $ threshold_t $ shards_t $ snapshot_t)

let query_cmd_term =
  let backend =
    Arg.(
      value & opt string "direct"
      & info [ "backend" ]
          ~doc:
            "Backend: direct, sql, or auto (the cost-based planner picks \
             per query).")
  in
  let query =
    Arg.(
      required
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"HTL" ~doc:"The HTL query.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~doc:"How many segments.")
  in
  let classify_only =
    Arg.(
      value & flag
      & info [ "classify" ] ~doc:"Only print the formula's class and exit.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the evaluation plan instead of results.  With \
             $(b,--trace) the query actually runs and the tree carries \
             per-node timings (EXPLAIN ANALYZE).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record evaluation spans and print the span tree to stderr \
             after the query (with $(b,--explain): analyze the plan).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the metrics registry to stderr after the query.")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry as Prometheus text exposition to \
             $(docv) after the query (implies collecting metrics; use \
             /dev/stdout to print).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the recorded spans as Chrome trace-event JSON to \
             $(docv) after the query (implies recording spans; load the \
             file at ui.perfetto.dev).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log queries at least $(docv) milliseconds long to stderr as \
             JSONL slow-query records (0 logs every query).")
  in
  let no_index =
    Arg.(
      value & flag
      & info [ "no-index" ]
          ~doc:
            "Disable index-based candidate pruning: atomic formulas score \
             every segment of the level (the pre-index behaviour, for A/B \
             debugging).  Results are identical either way.")
  in
  Term.(
    const run $ context_args_t $ backend $ query $ top $ classify_only
    $ explain $ trace $ metrics $ prom $ trace_out $ slow_ms $ no_index)

(* --- htlq serve -------------------------------------------------------------- *)

let serve_run args host port port_file workers queue_capacity timeout_ms
    io_timeout_ms max_body domains slow_ms trace_sample trace_slow_ms =
  let pool =
    if domains > 0 then Some (Parallel.Pool.create ~domains ()) else None
  in
  let metrics = Obs.Metrics.create () in
  let querylog = Obs.Querylog.create ~threshold_s:(slow_ms /. 1000.) () in
  let stats = Obs.Stats.create () in
  match open_handle args ?pool ~metrics ~querylog ~stats () with
  | exception (Sys_error msg | Failure msg) ->
      Format.eprintf "serve: %s@." msg;
      exit_query_error
  | exception Storage.Snapshot.Snapshot_error e ->
      Format.eprintf "serve: snapshot error: %s@."
        (Storage.Snapshot.error_to_string e);
      exit_query_error
  | sharded -> (
      let trace_slow_s =
        Option.map (fun ms -> ms /. 1000.) trace_slow_ms
      in
      let state =
        Htl_server.Router.make ~metrics ~querylog ~stats ~trace_sample
          ?trace_slow_s ~sharded
          (Sharded.contexts sharded).(0)
      in
      let config =
        {
          Htl_server.Server.default_config with
          host;
          port;
          workers;
          queue_capacity;
          request_timeout_s = timeout_ms /. 1000.;
          io_timeout_s = io_timeout_ms /. 1000.;
          limits =
            { Htl_server.Http.default_limits with max_body_bytes = max_body };
        }
      in
      match Htl_server.Server.start ~config state with
      | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "serve: cannot bind %s:%d: %s@." host port
            (Unix.error_message e);
          exit_query_error
      | exception Failure msg ->
          Format.eprintf "serve: %s@." msg;
          exit_query_error
      | server ->
          Htl_server.Server.install_signal_handlers server;
          let bound = Htl_server.Server.port server in
          Option.iter
            (fun path ->
              Out_channel.with_open_text path (fun oc ->
                  Printf.fprintf oc "%d\n" bound))
            port_file;
          (* "@." flushes, so a log-following test sees the banner as
             soon as the socket is live *)
          Format.printf
            "htlq: serving on %s:%d (workers=%d, queue=%d, domains=%d)@." host
            bound workers queue_capacity domains;
          Htl_server.Server.wait server;
          Option.iter Parallel.Pool.shutdown pool;
          Format.printf "htlq: shutdown complete@.";
          exit_ok)

let serve_term =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address (an IP literal).")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to listen on; 0 picks an ephemeral port.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port to $(docv) once listening — how \
             scripts find an ephemeral port.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Connection worker threads.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-control bound: accepted connections allowed to \
             wait for a worker; beyond it new connections get 429.")
  in
  let timeout_ms =
    Arg.(
      value & opt float 30000.
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline on /query and /batch evaluation, \
             counted from the request's read; past it the evaluation \
             stops at its next node and the client gets 503 (0 answers \
             every query 503).")
  in
  let io_timeout_ms =
    Arg.(
      value & opt float 10000.
      & info [ "io-timeout-ms" ] ~docv:"MS"
          ~doc:"Socket read/write timeout and keep-alive idle limit.")
  in
  let max_body =
    Arg.(
      value
      & opt int Htl_server.Http.default_limits.Htl_server.Http.max_body_bytes
      & info [ "max-body" ] ~docv:"BYTES" ~doc:"Request body size limit.")
  in
  let domains =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domain pool for parallel evaluation shared by all requests \
             (0: evaluate on the worker thread).")
  in
  let slow_ms =
    Arg.(
      value & opt float 100.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Slow-query log threshold served at /slowlog.")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Trace 1 in $(docv) requests (deterministic counter) into \
             the /trace ring; 0 disables sampling.")
  in
  let trace_slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "trace-slow-ms" ] ~docv:"MS"
          ~doc:
            "Trace every request but retain only those slower than \
             $(docv) — the retroactive slow-trace net; composes with \
             $(b,--trace-sample).")
  in
  Term.(
    const serve_run $ context_args_t $ host $ port $ port_file $ workers
    $ queue $ timeout_ms $ io_timeout_ms $ max_body $ domains $ slow_ms
    $ trace_sample $ trace_slow_ms)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running query service: POST /query, POST /batch, GET \
          /metrics, GET /slowlog, GET /stats, GET /trace, GET /healthz over \
          one warm context.")
    serve_term

(* --- htlq http ---------------------------------------------------------------- *)

let http_run host port target body body_file timeout_ms =
  let body =
    match body_file with
    | Some path -> Some (In_channel.with_open_bin path In_channel.input_all)
    | None -> body
  in
  let meth = match body with Some _ -> "POST" | None -> "GET" in
  match
    Htl_server.Client.request ~timeout_s:(timeout_ms /. 1000.) ~host ~port
      ~meth ~target ?body ()
  with
  | Error msg ->
      Format.eprintf "http: %s@." msg;
      exit_query_error
  | Ok (status, _headers, body) ->
      if status >= 200 && status < 300 then begin
        print_string body;
        flush stdout;
        exit_ok
      end
      else begin
        (* error bodies go to stderr with the status, so piping stdout
           into a JSON consumer never feeds it an error payload *)
        prerr_string body;
        flush stderr;
        Format.eprintf "http status %d@." status;
        exit_query_error
      end

let http_term =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address (an IP literal).")
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"Request target, e.g. /healthz or /query.")
  in
  let body =
    Arg.(
      value
      & opt (some string) None
      & info [ "body"; "d" ] ~docv:"JSON"
          ~doc:"Request body; its presence makes the request a POST.")
  in
  let body_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "body-file" ] ~docv:"FILE"
          ~doc:"Read the request body from $(docv) (overrides $(b,--body)).")
  in
  let timeout_ms =
    Arg.(
      value & opt float 30000.
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Connect and IO timeout.")
  in
  Term.(
    const http_run $ host $ port $ target $ body $ body_file $ timeout_ms)

let http_cmd =
  Cmd.v
    (Cmd.info "http"
       ~doc:
         "Send one request to a running htlq server and print the response \
          body (exit 1 on transport errors and non-2xx statuses, whose \
          bodies go to stderr).")
    http_term

(* --- htlq stats --------------------------------------------------------------- *)

let stats_run host port timeout_ms =
  match
    Htl_server.Client.request ~timeout_s:(timeout_ms /. 1000.) ~host ~port
      ~meth:"GET" ~target:"/stats" ()
  with
  | Error msg ->
      Format.eprintf "stats: %s@." msg;
      exit_query_error
  | Ok (status, _headers, body) when status >= 200 && status < 300 -> (
      match Obs.Json.of_string body with
      | Ok json ->
          print_endline (Obs.Json.to_string_pretty json);
          exit_ok
      | Error msg ->
          Format.eprintf "stats: invalid JSON from server: %s@." msg;
          exit_query_error)
  | Ok (status, _headers, body) ->
      prerr_string body;
      flush stderr;
      Format.eprintf "http status %d@." status;
      exit_query_error

let stats_term =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address (an IP literal).")
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let timeout_ms =
    Arg.(
      value & opt float 30000.
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Connect and IO timeout.")
  in
  Term.(const stats_run $ host $ port $ timeout_ms)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch the running server's query statistics (GET /stats) and \
          pretty-print them: per-query EWMA latency and quantiles, per-atom \
          observed selectivity, per-backend error rates.")
    stats_term

(* --- htlq snapshot ----------------------------------------------------------- *)

let pp_snapshot_summary verb path sh =
  Format.printf "snapshot: %s %s (%d shards, %d leaf segments, %d levels)@."
    verb path (Sharded.shard_count sh)
    (Sharded.count_at sh ~level:(Sharded.levels sh))
    (Sharded.levels sh)

let snapshot_save_run (dataset, seed, level, threshold, shards, snapshot) out =
  ignore seed;
  match
    match snapshot with
    | Some path -> Sharded.load_snapshot ~threshold ?level path
    | None -> (
        match store_of_dataset dataset with
        | Some store -> Sharded.create ~shards ~threshold ?level store
        | None -> failwith store_required)
  with
  | exception Failure msg ->
      Format.eprintf "snapshot: %s@." msg;
      exit_usage
  | exception Sys_error msg ->
      Format.eprintf "snapshot: %s@." msg;
      exit_query_error
  | exception Storage.Snapshot.Snapshot_error e ->
      Format.eprintf "snapshot error: %s@."
        (Storage.Snapshot.error_to_string e);
      exit_query_error
  | sh -> (
      match Sharded.save_snapshot sh out with
      | () ->
          pp_snapshot_summary "wrote" out sh;
          exit_ok
      | exception Sys_error msg ->
          Format.eprintf "snapshot: %s@." msg;
          exit_query_error)

let snapshot_load_run path =
  match Sharded.load_snapshot path with
  | sh ->
      pp_snapshot_summary "loaded" path sh;
      exit_ok
  | exception Storage.Snapshot.Snapshot_error e ->
      Format.eprintf "snapshot error: %s@."
        (Storage.Snapshot.error_to_string e);
      exit_query_error
  | exception Sys_error msg ->
      Format.eprintf "snapshot: %s@." msg;
      exit_query_error

let snapshot_save_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the snapshot.")
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:
         "Build the dataset (honouring $(b,--shards)), finalize its indexes \
          for every level, and write a binary snapshot to $(b,--out).")
    Term.(const snapshot_save_run $ context_args_t $ out)

let snapshot_load_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file to load.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Load and validate a snapshot (magic, version, length, checksum, \
          payload) and print its shape; exit 1 on any corruption.")
    Term.(const snapshot_load_run $ path)

let snapshot_cmd =
  Cmd.group
    (Cmd.info "snapshot"
       ~doc:
         "Save or load binary store snapshots (stores plus finalized \
          indexes) for rebuild-free cold starts.")
    [ snapshot_save_cmd; snapshot_load_cmd ]

let cmd =
  Cmd.group ~default:query_cmd_term
    (Cmd.info "htlq" ~doc:"Similarity-based retrieval of videos with HTL"
       ~exits:
         [
           Cmd.Exit.info exit_ok ~doc:"on success.";
           Cmd.Exit.info exit_query_error
             ~doc:"on query errors (syntax, unsupported formula, backend).";
           Cmd.Exit.info exit_usage ~doc:"on command-line usage errors.";
         ])
    [ serve_cmd; http_cmd; stats_cmd; snapshot_cmd ]

let () = exit (Cmd.eval' ~term_err:exit_usage cmd)
