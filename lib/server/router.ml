(* Routing and the JSON wire format.  Everything here is pure with
   respect to the transport: Http.request in, Http.response out.  The
   engine context is the warm shared state — subformula cache, index
   registry, metrics — and is already thread-safe, so concurrent calls
   to [handle] need no router-level lock. *)

module Json = Obs.Json

(* --- wire format ----------------------------------------------------------- *)

type query_req = {
  q : string;
  level : int option;
  k : int;
  backend : Engine.Query.backend;
  explain : bool;
}

let default_k = 10

let query_req_to_json r =
  Json.Obj
    (("query", Json.String r.q)
     :: (match r.level with
        | Some l -> [ ("level", Json.Int l) ]
        | None -> [])
    @ [
        ("k", Json.Int r.k);
        ("backend", Json.String (Engine.Query.backend_name r.backend));
        ("explain", Json.Bool r.explain);
      ])

(* The fields /query and /batch share: level, k, backend, explain. *)
let shared_fields_of_json json =
  let ( let* ) = Result.bind in
  let field name = Json.member name json in
  let* level =
    match field "level" with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int l) -> Ok (Some l)
    | Some _ -> Error "\"level\" must be an integer"
  in
  let* k =
    match field "k" with
    | None | Some Json.Null -> Ok default_k
    | Some (Json.Int k) when k >= 0 -> Ok k
    | Some _ -> Error "\"k\" must be a non-negative integer"
  in
  let* backend =
    match field "backend" with
    | None | Some Json.Null -> Ok Engine.Query.Direct_backend
    | Some (Json.String s) -> Engine.Query.backend_of_name s
    | Some _ -> Error "\"backend\" must be \"direct\", \"sql\" or \"auto\""
  in
  let* explain =
    match field "explain" with
    | None | Some Json.Null -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "\"explain\" must be a boolean"
  in
  Ok (level, k, backend, explain)

let query_req_of_json json =
  let ( let* ) = Result.bind in
  let* q =
    match Json.member "query" json with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error "\"query\" must be a string"
    | None -> Error "missing \"query\" field"
  in
  let* level, k, backend, explain = shared_fields_of_json json in
  Ok { q; level; k; backend; explain }

let results_to_json results =
  Json.Array
    (List.map
       (fun (id, sim) ->
         Json.Obj
           [
             ("id", Json.Int id);
             ("sim", Json.Float (Simlist.Sim.actual sim));
             ("max", Json.Float (Simlist.Sim.max_sim sim));
             ("fraction", Json.Float (Simlist.Sim.fraction sim));
           ])
       results)

let results_of_json json =
  let ( let* ) = Result.bind in
  let num name j =
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "result entry missing %S" name)
  in
  let entry j =
    let* id =
      match Json.member "id" j with
      | Some (Json.Int id) -> Ok id
      | _ -> Error "result entry missing \"id\""
    in
    let* actual = num "sim" j in
    let* max = num "max" j in
    match Simlist.Sim.make ~actual ~max with
    | sim -> Ok (id, sim)
    | exception Invalid_argument msg -> Error msg
  in
  match json with
  | Json.Array items ->
      List.fold_right
        (fun item acc ->
          let* tl = acc in
          let* hd = entry item in
          Ok (hd :: tl))
        items (Ok [])
  | _ -> Error "results must be an array"

(* --- state ------------------------------------------------------------------ *)

(* When to give a request its own tracer: 1-in-[sample_every] requests
   (0 = never), plus — when [slow_s] is set — every request, whose tree
   is then kept only if the request ends up slower than the threshold
   (retroactive keep: the tree must exist before we know the latency). *)
type trace_policy = { sample_every : int; slow_s : float option }

module Sharded = Htl_shard.Sharded

type state = {
  sharded : Sharded.t;  (* the only evaluation handle, one shard or many *)
  metrics : Obs.Metrics.t;
  querylog : Obs.Querylog.t;
  stats : Obs.Stats.t;
  tracestore : Obs.Tracestore.t;
  policy : trace_policy;
  sample_counter : int Atomic.t;
  active : int Atomic.t;
}

let preregister m =
  List.iter
    (Obs.Metrics.declare_counter m)
    [
      "server.connections";
      "server.requests";
      "server.responses.2xx";
      "server.responses.4xx";
      "server.responses.5xx";
      "server.rejected";
      "server.timeouts";
      "server.bad_requests";
      "server.ingested";
      "server.traced";
    ];
  List.iter
    (Obs.Metrics.declare_gauge m)
    [ "server.queue_depth"; "server.active_requests"; "cache.words" ];
  List.iter
    (Obs.Metrics.declare_histogram m)
    [ "server.request_latency_s"; "server.queue_wait_s" ]

let make ?metrics ?querylog ?stats ?tracestore ?(trace_sample = 0)
    ?trace_slow_s ?sharded ctx =
  if trace_sample < 0 then
    invalid_arg
      (Printf.sprintf "Server.Router.make: trace_sample %d < 0" trace_sample);
  (match trace_slow_s with
  | Some s when s < 0. ->
      invalid_arg
        (Printf.sprintf "Server.Router.make: trace_slow_s %g < 0" s)
  | Some _ | None -> ());
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let querylog =
    match querylog with
    | Some q -> q
    | None -> Obs.Querylog.create ~threshold_s:0.1 ()
  in
  let stats = match stats with Some s -> s | None -> Obs.Stats.create () in
  let tracestore =
    match tracestore with Some t -> t | None -> Obs.Tracestore.create ()
  in
  preregister metrics;
  let sharded =
    match sharded with
    | Some sh -> sh
    | None ->
        Sharded.of_context
          (Engine.Context.with_stats
             (Engine.Context.with_querylog
                (Engine.Context.with_metrics ctx metrics)
                querylog)
             stats)
  in
  {
    sharded;
    metrics;
    querylog;
    stats;
    tracestore;
    policy = { sample_every = trace_sample; slow_s = trace_slow_s };
    sample_counter = Atomic.make 0;
    active = Atomic.make 0;
  }

let context s = (Sharded.contexts s.sharded).(0)
let sharded s = Some s.sharded
let metrics s = s.metrics
let querylog s = s.querylog
let stats s = s.stats
let tracestore s = s.tracestore

let count_status s status =
  let series =
    if status >= 200 && status < 300 then Some "server.responses.2xx"
    else if status >= 400 && status < 500 then Some "server.responses.4xx"
    else if status >= 500 then Some "server.responses.5xx"
    else None
  in
  Option.iter (fun name -> Obs.Metrics.incr s.metrics name) series

(* --- responses -------------------------------------------------------------- *)

let json_headers = [ ("Content-Type", "application/json") ]
let text_headers = [ ("Content-Type", "text/plain; charset=utf-8") ]

let json_response ~status json =
  Http.response ~headers:json_headers ~status (Json.to_string json ^ "\n")

let error_response ~status msg =
  json_response ~status (Json.Obj [ ("error", Json.String msg) ])

(* --- query evaluation ------------------------------------------------------- *)

let at_level sh = function
  | None -> Ok sh
  | Some level -> (
      match Sharded.with_level sh ~level with
      | sh -> Ok sh
      | exception Invalid_argument msg -> Error msg)

let query_json sh req f =
  let cls = Htl.Classify.classify f in
  if req.explain then
    Json.Obj
      [
        ("class", Json.String (Htl.Classify.cls_to_string cls));
        ("plan", Json.String (Sharded.explain ~backend:req.backend sh f));
      ]
  else
    let count, top = Sharded.top_k ~backend:req.backend sh ~k:req.k f in
    Json.Obj
      [
        ("class", Json.String (Htl.Classify.cls_to_string cls));
        ("count", Json.Int count);
        ("results", results_to_json top);
      ]

let run_query state req =
  match at_level state.sharded req.level with
  | Error msg -> error_response ~status:400 msg
  | Ok sh -> (
      match Htl.Parser.formula_of_string_opt req.q with
      | Error msg -> error_response ~status:400 ("syntax error: " ^ msg)
      | Ok f -> (
          match query_json sh req f with
          | json -> json_response ~status:200 json
          | exception Engine.Query.Error msg -> error_response ~status:400 msg))

(* Batch: queries are independent; a parse failure occupies its error
   slot without touching its neighbours, and evaluation failures come
   back as [Error msg] from run_batch itself.  Each slot answers
   (count, top k), gathered without a merged list as /query does. *)
let run_batch state req_json =
  let ( let* ) = Result.bind in
  let parsed =
    let* level, k, backend, _explain = shared_fields_of_json req_json in
    let* queries =
      match Json.member "queries" req_json with
      | Some (Json.Array items) ->
          List.fold_right
            (fun item acc ->
              let* tl = acc in
              match item with
              | Json.String q -> Ok (q :: tl)
              | _ -> Error "\"queries\" must be an array of strings")
            items (Ok [])
      | Some _ -> Error "\"queries\" must be an array of strings"
      | None -> Error "missing \"queries\" field"
    in
    let* sh = at_level state.sharded level in
    Ok (backend, queries, sh, k)
  in
  match parsed with
  | Error msg -> error_response ~status:400 msg
  | Ok (backend, queries, sh, k) ->
      let slots =
        List.map
          (fun q ->
            match Htl.Parser.formula_of_string_opt q with
            | Error msg -> Error ("syntax error: " ^ msg)
            | Ok f -> Ok f)
          queries
      in
      let formulas = List.filter_map Result.to_option slots in
      let outcomes = Sharded.run_batch ~backend sh ~k formulas in
      (* stitch evaluation outcomes back into the parse-error slots *)
      let rec stitch slots outcomes =
        match (slots, outcomes) with
        | [], _ -> []
        | Error msg :: slots, outcomes ->
            Json.Obj [ ("error", Json.String msg) ] :: stitch slots outcomes
        | Ok f :: slots, outcome :: outcomes ->
            (match outcome with
            | Ok (count, top) ->
                Json.Obj
                  [
                    ( "class",
                      Json.String
                        (Htl.Classify.cls_to_string (Htl.Classify.classify f))
                    );
                    ("count", Json.Int count);
                    ("results", results_to_json top);
                  ]
            | Error msg -> Json.Obj [ ("error", Json.String msg) ])
            :: stitch slots outcomes
        | Ok _ :: _, [] ->
            (* run_batch returns one outcome per formula, so this arm is
               unreachable; answer in kind rather than crash *)
            [ Json.Obj [ ("error", Json.String "missing batch outcome") ] ]
      in
      json_response ~status:200
        (Json.Obj [ ("results", Json.Array (stitch slots outcomes)) ])

(* --- ingestion -------------------------------------------------------------- *)

(* Wire format of POST /ingest:
     { "segments": [ { "attrs": {..}, "objects": [ {"id": 3, "type":
       "person", "attrs": {..}} ], "relationships": [ {"name":
       "fires_at", "args": [3, 7]} ] } ],
       "video": 0 }            (optional; default: the last video)
   Appends the segments as new leaves of the target video (which must be
   the last of its owning shard) and answers with the new leaf count and
   the store version (summed over the shards). *)

let ( let* ) = Result.bind

let value_of_json = function
  | Json.Int n -> Ok (Metadata.Value.Int n)
  | Json.Float f -> Ok (Metadata.Value.Float f)
  | Json.String s -> Ok (Metadata.Value.Str s)
  | Json.Bool b -> Ok (Metadata.Value.Bool b)
  | _ -> Error "attribute values must be numbers, strings or booleans"

let attrs_of_json what = function
  | None | Some Json.Null -> Ok []
  | Some (Json.Obj fields) ->
      List.fold_right
        (fun (name, v) acc ->
          let* tl = acc in
          let* v = value_of_json v in
          Ok ((name, v) :: tl))
        fields (Ok [])
  | Some _ -> Error (Printf.sprintf "%s \"attrs\" must be an object" what)

let object_of_json = function
  | Json.Obj _ as j ->
      let* id =
        match Json.member "id" j with
        | Some (Json.Int id) -> Ok id
        | _ -> Error "object \"id\" must be an integer"
      in
      let* otype =
        match Json.member "type" j with
        | Some (Json.String s) -> Ok s
        | _ -> Error "object \"type\" must be a string"
      in
      let* attrs = attrs_of_json "object" (Json.member "attrs" j) in
      Ok (Metadata.Entity.make ~id ~otype ~attrs ())
  | _ -> Error "\"objects\" items must be objects"

let relationship_of_json = function
  | Json.Obj _ as j ->
      let* name =
        match Json.member "name" j with
        | Some (Json.String s) -> Ok s
        | _ -> Error "relationship \"name\" must be a string"
      in
      let* args =
        match Json.member "args" j with
        | Some (Json.Array items) ->
            List.fold_right
              (fun item acc ->
                let* tl = acc in
                match item with
                | Json.Int n -> Ok (n :: tl)
                | _ -> Error "relationship \"args\" must be integers")
              items (Ok [])
        | _ -> Error "relationship \"args\" must be an array of integers"
      in
      Ok (Metadata.Relationship.make name args)
  | _ -> Error "\"relationships\" items must be objects"

let list_field of_item name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok []
  | Some (Json.Array items) ->
      List.fold_right
        (fun item acc ->
          let* tl = acc in
          let* hd = of_item item in
          Ok (hd :: tl))
        items (Ok [])
  | Some _ -> Error (Printf.sprintf "%S must be an array" name)

let segment_of_json = function
  | Json.Obj _ as j ->
      let* attrs = attrs_of_json "segment" (Json.member "attrs" j) in
      let* objects = list_field object_of_json "objects" j in
      let* relationships = list_field relationship_of_json "relationships" j in
      Ok (Metadata.Seg_meta.make ~objects ~relationships ~attrs ())
  | _ -> Error "\"segments\" items must be objects"

let ingest_req_of_json json =
  let* segments =
    match Json.member "segments" json with
    | Some (Json.Array (_ :: _ as items)) ->
        List.fold_right
          (fun item acc ->
            let* tl = acc in
            let* hd = segment_of_json item in
            Ok (hd :: tl))
          items (Ok [])
    | Some (Json.Array []) -> Error "\"segments\" must not be empty"
    | Some _ -> Error "\"segments\" must be an array"
    | None -> Error "missing \"segments\" field"
  in
  let* video =
    match Json.member "video" json with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int v) -> Ok (Some v)
    | Some _ -> Error "\"video\" must be an integer"
  in
  Ok (segments, video)

let run_ingest state json =
  match ingest_req_of_json json with
  | Error msg -> error_response ~status:400 msg
  | Ok (segments, video) -> (
      let sh = state.sharded in
      match Sharded.append_segments ?video sh segments with
      | () ->
          let n = List.length segments in
          Obs.Metrics.incr state.metrics ~by:n "server.ingested";
          json_response ~status:200
            (Json.Obj
               [
                 ("appended", Json.Int n);
                 ( "leaf_count",
                   Json.Int (Sharded.count_at sh ~level:(Sharded.levels sh)) );
                 ("version", Json.Int (Sharded.version sh));
               ])
      | exception Invalid_argument msg -> error_response ~status:400 msg)

let with_body_json (req : Http.request) k =
  match Json.of_string req.Http.body with
  | Error msg -> error_response ~status:400 ("invalid JSON body: " ^ msg)
  | Ok json -> k json

(* --- traces and stats ------------------------------------------------------- *)

let run_trace_list state =
  json_response ~status:200
    (Json.Array
       (List.map Obs.Tracestore.summary_json
          (Obs.Tracestore.entries state.tracestore)))

let run_trace_get state id =
  match Obs.Traceid.of_string id with
  | None -> error_response ~status:400 ("invalid trace id " ^ id)
  | Some id -> (
      match Obs.Tracestore.find state.tracestore id with
      | None -> error_response ~status:404 ("no retained trace " ^ id)
      | Some e ->
          json_response ~status:200
            (Obs.Export.chrome_trace_json_of_spans ~trace_id:e.Obs.Tracestore.trace_id
               e.Obs.Tracestore.spans))

(* --- dispatch --------------------------------------------------------------- *)

let trace_target target =
  (* "/trace/<id>" → Some "<id>"; "/trace" and "/trace/" → None *)
  let prefix = "/trace/" in
  let n = String.length prefix in
  if
    String.length target > n
    && String.equal (String.sub target 0 n) prefix
  then Some (String.sub target n (String.length target - n))
  else None

(* Words the shard caches keep resident, read when a scrape asks. *)
let cache_words state =
  Array.fold_left
    (fun n ctx ->
      match Engine.Context.cache ctx with
      | Some c -> n + (Engine.Cache.stats c).words
      | None -> n)
    0
    (Sharded.contexts state.sharded)

let route state req =
  match (req.Http.meth, req.Http.target) with
  | "GET", "/healthz" -> Http.response ~headers:text_headers ~status:200 "ok\n"
  | "GET", "/metrics" ->
      Obs.Metrics.set_gauge state.metrics "cache.words"
        (float_of_int (cache_words state));
      Http.response
        ~headers:[ ("Content-Type", "text/plain; version=0.0.4") ]
        ~status:200
        (Obs.Export.prometheus state.metrics)
  | "GET", "/slowlog" ->
      Http.response
        ~headers:[ ("Content-Type", "application/x-ndjson") ]
        ~status:200
        (Obs.Querylog.to_jsonl state.querylog)
  | "GET", "/stats" ->
      let cache =
        ("cache", Json.Obj [ ("words", Json.Int (cache_words state)) ])
      in
      json_response ~status:200
        (match Obs.Stats.to_json state.stats with
        | Json.Obj fields -> Json.Obj (fields @ [ cache ])
        | other -> other)
  | "GET", ("/trace" | "/trace/") -> run_trace_list state
  | "GET", target when trace_target target <> None ->
      run_trace_get state (Option.get (trace_target target))
  | "POST", "/query" ->
      with_body_json req (fun json ->
          match query_req_of_json json with
          | Error msg -> error_response ~status:400 msg
          | Ok q -> run_query state q)
  | "POST", "/batch" -> with_body_json req (run_batch state)
  | "POST", "/ingest" -> with_body_json req (run_ingest state)
  | ( _,
      ( "/healthz" | "/metrics" | "/slowlog" | "/stats" | "/trace"
      | "/query" | "/batch" | "/ingest" ) ) ->
      error_response ~status:405
        (Printf.sprintf "method %s not allowed on %s" req.Http.meth
           req.Http.target)
  | meth, target when trace_target target <> None ->
      error_response ~status:405
        (Printf.sprintf "method %s not allowed on %s" meth target)
  | _, target -> error_response ~status:404 ("no route for " ^ target)

(* --- per-request observation ------------------------------------------------- *)

(* The client's id when it sent a well-formed one ([X-Trace-Id] bare, or
   a full W3C [traceparent]); a fresh one otherwise.  Malformed ids are
   replaced, not rejected — tracing must never fail a request. *)
let request_trace_id req =
  let provided =
    match Http.header req "x-trace-id" with
    | Some v -> Obs.Traceid.of_string v
    | None -> Option.bind (Http.header req "traceparent") Obs.Traceid.of_traceparent
  in
  match provided with Some id -> id | None -> Obs.Traceid.generate ()

(* A request-scoped view of the state: same warm caches, registries and
   rings, but every shard context stamps [trace_id] and the deadline,
   and — when the request is traced — emits into a tracer that no
   concurrent request shares, so span nesting stays coherent even though
   all worker threads live on one domain. *)
let state_for_request state ~trace_id ?deadline tracer =
  {
    state with
    sharded = Sharded.for_request ?tracer ~trace_id ?deadline state.sharded;
  }

let set_active state n =
  Obs.Metrics.set_gauge state.metrics "server.active_requests" (float_of_int n)

let handle ?deadline state req =
  let t0 = Obs.Clock.now () in
  Obs.Metrics.incr state.metrics "server.requests";
  set_active state (Atomic.fetch_and_add state.active 1 + 1);
  let trace_id = request_trace_id req in
  let sampled =
    state.policy.sample_every > 0
    && Atomic.fetch_and_add state.sample_counter 1 mod state.policy.sample_every
       = 0
  in
  let tracer =
    if sampled || state.policy.slow_s <> None then
      Some (Obs.Trace.create ~trace_id ())
    else None
  in
  let rstate = state_for_request state ~trace_id ?deadline tracer in
  let run () =
    match tracer with
    | None -> route rstate req
    | Some tr ->
        Obs.Trace.with_span tr "server.request"
          ~attrs:
            [
              ("method", req.Http.meth);
              ("target", req.Http.target);
              ("trace_id", trace_id);
            ]
          (fun () -> route rstate req)
  in
  let resp =
    match run () with
    | resp -> resp
    | exception Engine.Context.Deadline_exceeded ->
        Obs.Metrics.incr state.metrics "server.timeouts";
        error_response ~status:503 "query timed out"
    | exception e ->
        (* a crash must answer (and be visible in metrics), not tear
           down the worker *)
        error_response ~status:500
          ("internal error: " ^ Printexc.to_string e)
  in
  let latency = Obs.Clock.now () -. t0 in
  Obs.Metrics.observe state.metrics "server.request_latency_s" latency;
  count_status state resp.Http.status;
  (match tracer with
  | Some tr ->
      let keep =
        sampled
        ||
        match state.policy.slow_s with
        | Some slow -> latency >= slow
        | None -> false
      in
      if keep then begin
        Obs.Metrics.incr state.metrics "server.traced";
        Obs.Tracestore.add state.tracestore
          {
            Obs.Tracestore.trace_id;
            time_s = Obs.Clock.wall t0;
            latency_s = latency;
            meth = req.Http.meth;
            target = req.Http.target;
            status = resp.Http.status;
            spans = Obs.Trace.spans tr;
          }
      end
  | None -> ());
  set_active state (Atomic.fetch_and_add state.active (-1) - 1);
  { resp with Http.headers = resp.Http.headers @ [ ("X-Trace-Id", trace_id) ] }
