(* Tests for the query service (lib/server): the HTTP message layer in
   memory (parser corners, response goldens), the router's status codes
   and JSON wire format (qcheck round-trips), the pre-registered
   server.* metrics exposition, and a live server over real sockets —
   warm-context behaviour, concurrent-load differential against
   sequential in-process evaluation, protocol fault injection,
   admission control, per-request timeouts and graceful shutdown. *)

module Http = Htl_server.Http
module Router = Htl_server.Router
module Server = Htl_server.Server
module Client = Htl_server.Client
module Json = Obs.Json
module Context = Engine.Context
module Query = Engine.Query

(* --- in-memory readers ------------------------------------------------------ *)

let reader_of_string ?(chunk = max_int) s =
  let pos = ref 0 in
  Http.reader (fun buf off len ->
      let n = min (min len chunk) (String.length s - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n)

(* yields [s], then raises Read_timeout forever *)
let stalling_reader s =
  let pos = ref 0 in
  Http.reader (fun buf off len ->
      let n = min len (String.length s - !pos) in
      if n = 0 then raise Http.Read_timeout;
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n)

let req_error = function
  | Ok (r : Http.request) ->
      Alcotest.failf "expected an error, parsed %s %s" r.Http.meth
        r.Http.target
  | Error e -> e

let req_ok = function
  | Ok (r : Http.request) -> r
  | Error _ -> Alcotest.fail "expected a request"

let error_name = function
  | Http.Closed -> "closed"
  | Http.Timeout -> "timeout"
  | Http.Too_large what -> "too_large:" ^ what
  | Http.Bad _ -> "bad"

let check_error name expected r =
  Alcotest.(check string) name expected (error_name (req_error r))

(* --- the HTTP layer --------------------------------------------------------- *)

let http_parser_tests =
  let open Alcotest in
  [
    test_case "GET parses: line, headers, empty body" `Quick (fun () ->
        let r =
          req_ok
            (Http.read_request
               (reader_of_string
                  "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Weird:  padded  \r\n\r\n"))
        in
        check string "meth" "GET" r.Http.meth;
        check string "target" "/healthz" r.Http.target;
        check string "version" "HTTP/1.1" r.Http.version;
        check (option string) "host header" (Some "x") (Http.header r "Host");
        check (option string) "names lowercase, values trimmed"
          (Some "padded")
          (Http.header r "x-weird");
        check string "no body" "" r.Http.body);
    test_case "POST reads exactly content-length bytes" `Quick (fun () ->
        let r =
          req_ok
            (Http.read_request
               (reader_of_string
                  "POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}extra"))
        in
        check string "body" "{\"a\":1}" r.Http.body);
    test_case "one-byte reads parse identically" `Quick (fun () ->
        let raw = "POST /q HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc" in
        let r = req_ok (Http.read_request (reader_of_string ~chunk:1 raw)) in
        check string "meth" "POST" r.Http.meth;
        check string "body" "abc" r.Http.body);
    test_case "keep-alive: buffered second request survives the boundary"
      `Quick (fun () ->
        let raw =
          "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
        in
        let c = reader_of_string raw in
        let a = req_ok (Http.read_request c) in
        let b = req_ok (Http.read_request c) in
        check string "first" "/a" a.Http.target;
        check string "second" "/b" b.Http.target;
        check string "second's body" "hi" b.Http.body;
        check_error "then a clean end" "closed" (Http.read_request c));
    test_case "malformed request line / version / header / length" `Quick
      (fun () ->
        check_error "two tokens" "bad"
          (Http.read_request (reader_of_string "GET /\r\n\r\n"));
        check_error "bad version" "bad"
          (Http.read_request (reader_of_string "GET / HTTP/2.0\r\n\r\n"));
        check_error "header missing colon" "bad"
          (Http.read_request
             (reader_of_string "GET / HTTP/1.1\r\nnocolon\r\n\r\n"));
        check_error "negative content-length" "bad"
          (Http.read_request
             (reader_of_string
                "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n"));
        check_error "transfer-encoding refused" "bad"
          (Http.read_request
             (reader_of_string
                "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")));
    test_case "truncation: EOF nowhere, mid-header, mid-body" `Quick
      (fun () ->
        check_error "nothing at all" "closed"
          (Http.read_request (reader_of_string ""));
        check_error "EOF inside the header block" "bad"
          (Http.read_request (reader_of_string "GET / HTTP/1.1\r\nHo"));
        check_error "EOF inside the body" "bad"
          (Http.read_request
             (reader_of_string
                "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")));
    test_case "limits: oversized header block and body" `Quick (fun () ->
        let limits =
          { Http.max_header_bytes = 64; Http.max_body_bytes = 8 }
        in
        check_error "long header" "too_large:header block"
          (Http.read_request ~limits
             (reader_of_string
                ("GET / HTTP/1.1\r\nX-Big: " ^ String.make 100 'x' ^ "\r\n\r\n")));
        check_error "declared body over the cap" "too_large:body"
          (Http.read_request ~limits
             (reader_of_string
                "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789")));
    test_case "transport timeout: idle is Closed, mid-request is Timeout"
      `Quick (fun () ->
        check_error "idle keep-alive" "closed"
          (Http.read_request (stalling_reader ""));
        check_error "stalled mid-request" "timeout"
          (Http.read_request (stalling_reader "GET / HT")));
    test_case "keep_alive defaults per version" `Quick (fun () ->
        let parse raw = req_ok (Http.read_request (reader_of_string raw)) in
        check bool "1.1 default on" true
          (Http.keep_alive (parse "GET / HTTP/1.1\r\n\r\n"));
        check bool "1.1 + close" false
          (Http.keep_alive (parse "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        check bool "1.0 default off" false
          (Http.keep_alive (parse "GET / HTTP/1.0\r\n\r\n"));
        check bool "1.0 + keep-alive" true
          (Http.keep_alive
             (parse "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")));
  ]

let http_writer_tests =
  let open Alcotest in
  [
    test_case "response golden, close" `Quick (fun () ->
        let r =
          Http.response
            ~headers:[ ("Content-Type", "application/json") ]
            ~status:200 "{}"
        in
        check string "rendering"
          "HTTP/1.1 200 OK\r\n\
           Content-Type: application/json\r\n\
           Content-Length: 2\r\n\
           Connection: close\r\n\
           \r\n\
           {}"
          (Http.to_string r));
    test_case "response golden, keep-alive, empty body" `Quick (fun () ->
        check string "rendering"
          "HTTP/1.1 429 Too Many Requests\r\n\
           Retry-After: 1\r\n\
           Content-Length: 0\r\n\
           Connection: keep-alive\r\n\
           \r\n"
          (Http.to_string ~keep_alive:true
             (Http.response ~headers:[ ("Retry-After", "1") ] ~status:429 "")));
    test_case "reason phrases" `Quick (fun () ->
        List.iter
          (fun (code, phrase) ->
            check string (string_of_int code) phrase (Http.reason_phrase code))
          [
            (200, "OK");
            (400, "Bad Request");
            (404, "Not Found");
            (408, "Request Timeout");
            (413, "Payload Too Large");
            (429, "Too Many Requests");
            (503, "Service Unavailable");
            (599, "Unknown");
          ]);
    test_case "read_response inverts to_string" `Quick (fun () ->
        let rendered =
          Http.to_string
            (Http.response
               ~headers:[ ("Content-Type", "text/plain") ]
               ~status:404 "nope")
        in
        match Http.read_response (reader_of_string rendered) with
        | Error msg -> Alcotest.fail msg
        | Ok (status, headers, body) ->
            check int "status" 404 status;
            check string "body" "nope" body;
            check (option string) "content-type" (Some "text/plain")
              (List.assoc_opt "content-type" headers));
  ]

(* --- wire-format round-trips ------------------------------------------------ *)

let arb_query_req =
  let gen =
    let open QCheck.Gen in
    let* q = string_size ~gen:printable (int_range 0 40) in
    let* level = opt (int_range 1 4) in
    let* k = int_range 0 50 in
    let* backend =
      oneofl [ Query.Direct_backend; Query.Sql_backend_choice ]
    in
    let* explain = bool in
    return { Router.q; level; k; backend; explain }
  in
  let print (r : Router.query_req) = Json.to_string (Router.query_req_to_json r) in
  QCheck.make ~print gen

let arb_results =
  let gen =
    let open QCheck.Gen in
    list_size (int_range 0 12)
      (let* id = int_range 1 1000 in
       let* max = float_bound_inclusive 20. in
       let* frac = float_bound_inclusive 1. in
       return (id, Simlist.Sim.make ~actual:(max *. frac) ~max))
  in
  let print rs = Json.to_string (Router.results_to_json rs) in
  QCheck.make ~print gen

let roundtrip_wire to_json of_json v =
  match Json.of_string (Json.to_string (to_json v)) with
  | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg
  | Ok json -> (
      match of_json json with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok v' -> (v', true))

let wire_tests =
  [
    Helpers.qtest ~count:200 "query_req survives JSON and back"
      (fun r ->
        let r', ok = roundtrip_wire Router.query_req_to_json
            Router.query_req_of_json r
        in
        ok && r' = r)
      arb_query_req;
    Helpers.qtest ~count:200
      "results survive JSON and back bit-for-bit"
      (fun rs ->
        let rs', ok =
          roundtrip_wire Router.results_to_json Router.results_of_json rs
        in
        ok
        && List.length rs = List.length rs'
        && List.for_all2
             (fun (id, s) (id', s') ->
               id = id'
               && Simlist.Sim.actual s = Simlist.Sim.actual s'
               && Simlist.Sim.max_sim s = Simlist.Sim.max_sim s')
             rs rs')
      arb_results;
  ]

(* --- the router in memory --------------------------------------------------- *)

let fresh_state () = Router.make (Workload.Casablanca.context ())

let get target = { Http.meth = "GET"; target; version = "HTTP/1.1"; headers = []; body = "" }

let post target body =
  { Http.meth = "POST"; target; version = "HTTP/1.1"; headers = []; body }

let handle state req = (Router.handle state req : Http.response)

let check_status name expected (resp : Http.response) =
  Alcotest.(check int) name expected resp.Http.status;
  resp

let body_json name (resp : Http.response) =
  match Json.of_string resp.Http.body with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: body is not JSON (%s)" name msg

(* Words a warm [Router.handle] of [req] allocates, per request, over
   [n] requests between settled heaps (a block over 256 words skips the
   minor heap, so the minor counter alone would miss it). *)
let words_per_request state req ~n =
  let settle () =
    Gc.full_major ();
    Gc.minor ()
  in
  settle ();
  let before = Obs.Resource.sample () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Router.handle state req))
  done;
  settle ();
  Obs.Resource.allocated_words
    (Obs.Resource.delta ~before ~after:(Obs.Resource.sample ()))
  /. float_of_int n

let router_tests =
  let open Alcotest in
  [
    test_case "a warm cached query allocates within its bound" `Quick
      (fun () ->
        (* the state htlq serve builds for the Casablanca dataset, with
           metrics, a slow log and stats, warmed on the four paper-hot
           queries; Query 1 then answers from the cache.  Bound: 6,480
           words measured here plus 10 %.  Differencing a snapshot of
           the shared counters per query cost 7,800. *)
        let s =
          Router.make ~metrics:(Obs.Metrics.create ())
            ~querylog:(Obs.Querylog.create ~threshold_s:0.1 ())
            ~stats:(Obs.Stats.create ())
            (Context.with_fresh_cache (Workload.Casablanca.context ()))
        in
        let req q =
          post "/query"
            (Json.to_string
               (Json.Obj [ ("query", Json.String q); ("k", Json.Int 10) ]))
        in
        List.iter
          (fun q ->
            for _ = 1 to 50 do
              ignore (check_status q 200 (handle s (req q)))
            done)
          [
            Workload.Casablanca.query1;
            "eventually moving_train";
            "man_woman until moving_train";
            "man_woman and next (man_woman until moving_train)";
          ];
        let words =
          words_per_request s (req Workload.Casablanca.query1) ~n:200
        in
        if words > 7_128. then
          failf "%.1f words per request, bound 7,128" words);
    test_case "healthz / metrics / slowlog answer 200" `Quick (fun () ->
        let s = fresh_state () in
        ignore (check_status "healthz" 200 (handle s (get "/healthz")));
        let m = check_status "metrics" 200 (handle s (get "/metrics")) in
        check bool "exposition mentions server_requests" true
          (Astring.String.is_infix ~affix:"server_requests" m.Http.body);
        ignore (check_status "slowlog" 200 (handle s (get "/slowlog"))));
    test_case "unknown route 404, wrong method 405" `Quick (fun () ->
        let s = fresh_state () in
        ignore (check_status "404" 404 (handle s (get "/nope")));
        ignore (check_status "405" 405 (handle s (post "/metrics" "{}")));
        check int "both counted as 4xx" 2
          (Obs.Metrics.counter_value (Router.metrics s)
             "server.responses.4xx"));
    test_case "query: happy path carries class, count, ranked results" `Quick
      (fun () ->
        let s = fresh_state () in
        let resp =
          check_status "200" 200
            (handle s
               (post "/query"
                  "{\"query\": \"man_woman and eventually moving_train\", \
                   \"k\": 3}"))
        in
        let j = body_json "query" resp in
        check (option string) "class" (Some "type (1)")
          (match Json.member "class" j with
          | Some (Json.String c) -> Some c
          | _ -> None);
        match Json.member "results" j with
        | Some (Json.Array rs) -> check int "k capped the results" 3 (List.length rs)
        | _ -> Alcotest.fail "no results array");
    test_case "query: 400s say what is wrong" `Quick (fun () ->
        let s = fresh_state () in
        let bad body name =
          let resp = check_status name 400 (handle s (post "/query" body)) in
          match Json.member "error" (body_json name resp) with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.failf "%s: no error field" name
        in
        bad "not json" "malformed JSON";
        bad "{}" "missing query";
        bad "{\"query\": \"man_woman and ((\"}" "syntax error";
        bad "{\"query\": \"man_woman\", \"backend\": \"mystery\"}"
          "unknown backend";
        bad "{\"query\": \"man_woman\", \"k\": -1}" "negative k";
        bad "{\"query\": \"man_woman\", \"level\": 1}"
          "level without a store";
        check bool "all counted as 4xx" true
          (Obs.Metrics.counter_value (Router.metrics s) "server.responses.4xx"
          >= 6));
    test_case "query: explain returns a plan" `Quick (fun () ->
        let s = fresh_state () in
        let resp =
          check_status "200" 200
            (handle s
               (post "/query"
                  "{\"query\": \"man_woman\", \"explain\": true}"))
        in
        match Json.member "plan" (body_json "explain" resp) with
        | Some (Json.String plan) ->
            check bool "plan mentions the backend" true
              (Astring.String.is_infix ~affix:"direct" plan)
        | _ -> Alcotest.fail "no plan field");
    test_case "query: level selects a store level" `Quick (fun () ->
        let s =
          Router.make (Context.of_store (Workload.Casablanca.store ()))
        in
        ignore
          (check_status "valid level" 200
             (handle s
                (post "/query" "{\"query\": \"man_woman\", \"level\": 1}")));
        ignore
          (check_status "out-of-range level" 400
             (handle s
                (post "/query" "{\"query\": \"man_woman\", \"level\": 9}"))));
    test_case "batch: per-query isolation, shared k" `Quick (fun () ->
        let s = fresh_state () in
        let resp =
          check_status "200" 200
            (handle s
               (post "/batch"
                  "{\"queries\": [\"man_woman\", \"broken ((\", \
                   \"moving_train\"], \"k\": 2}"))
        in
        match Json.member "results" (body_json "batch" resp) with
        | Some (Json.Array [ ok1; err; ok2 ]) ->
            check bool "slot 1 evaluated" true
              (Json.member "count" ok1 <> None);
            check bool "slot 2 is an isolated error" true
              (Json.member "error" err <> None);
            check bool "slot 3 evaluated" true
              (Json.member "count" ok2 <> None)
        | _ -> Alcotest.fail "expected exactly three slots");
    test_case "batch: malformed envelope 400" `Quick (fun () ->
        let s = fresh_state () in
        ignore
          (check_status "no queries field" 400 (handle s (post "/batch" "{}")));
        ignore
          (check_status "non-string entry" 400
             (handle s (post "/batch" "{\"queries\": [42]}"))));
    test_case "requests and latency are counted" `Quick (fun () ->
        let s = fresh_state () in
        ignore (handle s (get "/healthz"));
        ignore (handle s (get "/nope"));
        check int "server.requests" 2
          (Obs.Metrics.counter_value (Router.metrics s) "server.requests");
        match Obs.Metrics.find (Router.metrics s) "server.request_latency_s" with
        | Some (Obs.Metrics.Histogram h) ->
            check int "latency samples" 2 h.Obs.Metrics.count
        | _ -> Alcotest.fail "no latency histogram");
  ]

(* --- ingestion over the wire ------------------------------------------------ *)

module Sharded = Htl_shard.Sharded

(* one leaf carrying a uniquely-typed object, findable by query *)
let zebra_segment =
  "{\"attrs\": {\"mood\": \"tense\"}, \"objects\": [{\"id\": 9, \"type\": \
   \"zebra\", \"attrs\": {\"speed\": 30}}], \"relationships\": [{\"name\": \
   \"holds\", \"args\": [9, 9]}]}"

let zebra_query =
  "{\"query\": \"exists z . (present(z) and type(z) = \\\"zebra\\\")\"}"

let int_field name field j =
  match Json.member field j with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "%s: no integer %S field" name field

(* the ranked global ids of a /query response *)
let result_ids name (resp : Http.response) =
  match Json.member "results" (body_json name resp) with
  | Some rj -> (
      match Router.results_of_json rj with
      | Ok rs -> List.map fst rs
      | Error msg -> Alcotest.failf "%s: bad results (%s)" name msg)
  | None -> Alcotest.failf "%s: no results array" name

(* Replay one fixed sequence — cold queries, a repeat the cache answers,
   an append, the same queries on the grown store — and read the cache,
   scan, index and query counters off /metrics. *)
let replayed_counters s =
  let q body = ignore (check_status "query" 200 (handle s (post "/query" body))) in
  let query1 =
    Json.to_string
      (Json.Obj [ ("query", Json.String Workload.Casablanca.query1) ])
  in
  q zebra_query;
  q query1;
  q query1;
  ignore
    (check_status "ingest" 200
       (handle s
          (post "/ingest" (Printf.sprintf "{\"segments\": [%s]}" zebra_segment))));
  q zebra_query;
  q query1;
  q zebra_query;
  let exposition = (check_status "metrics" 200 (handle s (get "/metrics"))).Http.body in
  let counted name =
    List.exists
      (fun p -> String.starts_with ~prefix:p name)
      [ "cache_hits"; "cache_misses"; "cache_survivals"; "cache_stale_drops";
        "picture_segments_scanned_l"; "picture_index_"; "query_count" ]
  in
  String.split_on_char '\n' exposition
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when counted n -> Option.map (fun v -> (n, v)) (int_of_string_opt v)
         | _ -> None)
  |> List.sort compare

let ingest_tests =
  let open Alcotest in
  [
    test_case "ingest: the very next query sees the new leaf" `Quick (fun () ->
        let store = Workload.Casablanca.store () in
        let s = Router.make (Context.of_store store) in
        let leaf = Video_model.Store.levels store in
        let before = Video_model.Store.count_at store ~level:leaf in
        let r0 =
          check_status "cold query" 200 (handle s (post "/query" zebra_query))
        in
        check bool "the future id is not ranked yet" false
          (List.mem (before + 1) (result_ids "before" r0));
        let resp =
          check_status "ingest 200" 200
            (handle s
               (post "/ingest"
                  (Printf.sprintf "{\"segments\": [%s]}" zebra_segment)))
        in
        let j = body_json "ingest" resp in
        check int "appended" 1 (int_field "ingest" "appended" j);
        check int "leaf_count" (before + 1) (int_field "ingest" "leaf_count" j);
        check int "version" 1 (int_field "ingest" "version" j);
        check int "server.ingested counted" 1
          (Obs.Metrics.counter_value (Router.metrics s) "server.ingested");
        let r1 =
          check_status "warm query" 200 (handle s (post "/query" zebra_query))
        in
        check bool "the appended segment is ranked" true
          (List.mem (before + 1) (result_ids "after" r1)));
    test_case "ingest: 400s say what is wrong" `Quick (fun () ->
        let s = Router.make (Context.of_store (Workload.Casablanca.store ())) in
        let bad body name =
          let resp = check_status name 400 (handle s (post "/ingest" body)) in
          match Json.member "error" (body_json name resp) with
          | Some (Json.String _) -> ()
          | _ -> Alcotest.failf "%s: no error field" name
        in
        bad "not json" "malformed JSON";
        bad "{}" "missing segments";
        bad "{\"segments\": []}" "empty segments";
        bad "{\"segments\": 42}" "segments not an array";
        bad "{\"segments\": [{\"objects\": [{\"type\": \"zebra\"}]}]}"
          "object without id";
        bad "{\"segments\": [{\"attrs\": {\"mood\": [1]}}]}"
          "attr value not scalar";
        bad
          (Printf.sprintf "{\"segments\": [%s], \"video\": 7}" zebra_segment)
          "not the last video";
        check int "nothing was ingested" 0
          (Obs.Metrics.counter_value (Router.metrics s) "server.ingested"));
    test_case "ingest: storeless contexts refuse, GET is 405" `Quick (fun () ->
        let s = fresh_state () in
        ignore
          (check_status "tables cannot grow" 400
             (handle s
                (post "/ingest"
                   (Printf.sprintf "{\"segments\": [%s]}" zebra_segment))));
        ignore (check_status "405" 405 (handle s (get "/ingest"))));
    test_case "ingest and level on a store-less dataset: 400" `Quick
      (fun () ->
        let s = fresh_state () in
        let error name resp =
          match Json.member "error" (body_json name (check_status name 400 resp)) with
          | Some (Json.String msg) -> msg
          | _ -> Alcotest.failf "%s: no error field" name
        in
        check string "level"
          "\"level\" requires a store-backed dataset"
          (error "level"
             (handle s (post "/query" "{\"query\": \"man_woman\", \"level\": 1}")));
        check string "batch level"
          "\"level\" requires a store-backed dataset"
          (error "batch level"
             (handle s
                (post "/batch" "{\"queries\": [\"man_woman\"], \"level\": 1}")));
        check string "ingest" "ingestion requires a store-backed dataset"
          (error "ingest"
             (handle s
                (post "/ingest"
                   (Printf.sprintf "{\"segments\": [%s]}" zebra_segment)))));
    test_case "a fixed request sequence leaves the same counters" `Quick
      (fun () ->
        let one =
          Router.make ~querylog:(Obs.Querylog.create ~threshold_s:0. ())
            (Context.with_fresh_cache
               (Context.of_store (Workload.Casablanca.store ())))
        in
        let two =
          let metrics = Obs.Metrics.create ()
          and querylog = Obs.Querylog.create ~threshold_s:0. ()
          and stats = Obs.Stats.create () in
          let sh =
            Sharded.create ~shards:2 ~metrics ~querylog ~stats
              (Workload.Movies.random_store (Workload.Rng.make 11) ~videos:2
                 ~branching:3 ~object_pool:4 ())
          in
          Router.make ~metrics ~querylog ~stats ~sharded:sh
            (Sharded.contexts sh).(0)
        in
        (* the values the snapshot-and-difference envelope left, which
           merging each query's own counters must reproduce *)
        let counters = Alcotest.(list (pair string int)) in
        check counters "one context"
          [
            ("cache_hits", 2); ("cache_misses", 10); ("cache_stale_drops", 0);
            ("cache_survivals", 0); ("picture_index_builds", 1);
            ("picture_index_candidates", 0); ("picture_index_delta_merges", 1);
            ("picture_index_pruned_segments", 202);
            ("picture_index_registry_hits", 11);
            ("picture_segments_scanned_l2", 101); ("query_count", 6);
          ]
          (replayed_counters one);
        check counters "two shards"
          [
            ("cache_hits", 6); ("cache_misses", 15); ("cache_stale_drops", 0);
            ("cache_survivals", 0); ("picture_index_builds", 2);
            ("picture_index_candidates", 0); ("picture_index_delta_merges", 1);
            ("picture_index_pruned_segments", 20);
            ("picture_index_registry_hits", 19);
            ("picture_segments_scanned_l2", 10); ("query_count", 6);
          ]
          (replayed_counters two));
    test_case "ingest: sharded appends route and stay visible" `Quick (fun () ->
        let store =
          Workload.Movies.random_store (Workload.Rng.make 11) ~videos:2
            ~branching:3 ~object_pool:4 ()
        in
        let sh = Sharded.create ~shards:2 store in
        let s = Router.make ~sharded:sh (Context.of_store store) in
        let before = Sharded.count_at sh ~level:(Sharded.levels sh) in
        let resp =
          check_status "ingest 200" 200
            (handle s
               (post "/ingest"
                  (Printf.sprintf "{\"segments\": [%s, %s]}" zebra_segment
                     zebra_segment)))
        in
        let j = body_json "ingest" resp in
        check int "appended" 2 (int_field "ingest" "appended" j);
        check int "leaf_count" (before + 2) (int_field "ingest" "leaf_count" j);
        check int "version sums the shard versions" (Sharded.version sh)
          (int_field "ingest" "version" j);
        check int "one bump per append, as one store would read" 1
          (Sharded.version sh);
        ignore
          (check_status "out-of-range video" 400
             (handle s
                (post "/ingest"
                   (Printf.sprintf "{\"segments\": [%s], \"video\": 9}"
                      zebra_segment))));
        let r =
          check_status "query" 200 (handle s (post "/query" zebra_query))
        in
        let ids = result_ids "query" r in
        check bool "scatter-gather ranks the appended leaves" true
          (List.mem (before + 1) ids && List.mem (before + 2) ids));
  ]

(* --- pre-registered exposition ---------------------------------------------- *)

let exposition_tests =
  let open Alcotest in
  [
    test_case "every server.* series is visible before any traffic" `Quick
      (fun () ->
        Obs.Clock.set_source (fun () -> 1000.);
        Fun.protect ~finally:Obs.Clock.use_monotonic_clock (fun () ->
            let s = fresh_state () in
            let exposition = Obs.Export.prometheus (Router.metrics s) in
            List.iter
              (fun line ->
                check bool line true
                  (Astring.String.is_infix ~affix:line exposition))
              [
                "server_connections 0";
                "server_requests 0";
                "server_responses_2xx 0";
                "server_responses_4xx 0";
                "server_responses_5xx 0";
                "server_rejected 0";
                "server_timeouts 0";
                "server_bad_requests 0";
                "server_traced 0";
                "server_queue_depth 0";
                "server_active_requests 0";
                "server_request_latency_s_count 0";
                "server_queue_wait_s_count 0";
                (* PR 4's lesson, carried over: the cache series are
                   pre-registered by with_metrics *)
                "cache_hits 0";
                "cache_misses 0";
              ]));
    test_case "declare is idempotent and kind-checked" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Router.preregister m;
        Router.preregister m;
        check int "still zero" 0
          (Obs.Metrics.counter_value m "server.requests");
        Obs.Metrics.incr m "server.requests";
        Router.preregister m;
        check int "declare never resets" 1
          (Obs.Metrics.counter_value m "server.requests");
        check_raises "histogram name cannot become a counter"
          (Invalid_argument
             "Obs.Metrics: \"server.request_latency_s\" already registered \
              with another kind")
          (fun () -> Obs.Metrics.declare_counter m "server.request_latency_s"));
  ]

(* --- request-scoped tracing and /stats --------------------------------------- *)

let resp_trace_id (resp : Http.response) =
  List.assoc_opt "X-Trace-Id" resp.Http.headers

let with_header name value (req : Http.request) =
  { req with Http.headers = (name, value) :: req.Http.headers }

let known_id = "4bf92f3577b34da6a3ce929d0e0e4736"

let tracing_tests =
  let open Alcotest in
  [
    test_case "every response carries a trace id" `Quick (fun () ->
        let s = fresh_state () in
        (* minted when the client sends none *)
        (match resp_trace_id (handle s (get "/healthz")) with
        | Some id -> check bool "minted id is valid" true (Obs.Traceid.is_valid id)
        | None -> fail "no X-Trace-Id header");
        (* a well-formed client id is echoed *)
        check (option string) "bare X-Trace-Id echoed" (Some known_id)
          (resp_trace_id
             (handle s (with_header "x-trace-id" known_id (get "/healthz"))));
        check (option string) "traceparent accepted" (Some known_id)
          (resp_trace_id
             (handle s
                (with_header "traceparent"
                   ("00-" ^ known_id ^ "-00f067aa0ba902b7-01")
                   (get "/healthz"))));
        (* malformed ids are replaced, never a request failure *)
        match
          resp_trace_id
            (handle s (with_header "x-trace-id" "not-hex!" (get "/healthz")))
        with
        | Some id ->
            check bool "replaced with a fresh valid id" true
              (Obs.Traceid.is_valid id && id <> "not-hex!")
        | None -> fail "no X-Trace-Id header");
    test_case "/trace stamps requests with the observability clock" `Quick
      (fun () ->
        Obs.Clock.set_source (fun () -> 1234.5);
        Fun.protect ~finally:Obs.Clock.use_monotonic_clock (fun () ->
            let s =
              Router.make ~trace_sample:1 (Workload.Casablanca.context ())
            in
            ignore
              (check_status "query" 200
                 (handle s (post "/query" "{\"query\": \"man_woman\"}")));
            match
              body_json "trace list"
                (check_status "trace list" 200 (handle s (get "/trace")))
            with
            | Json.Array (row :: _) ->
                check (option (float 0.)) "time_s is the clock's reading"
                  (Some 1234.5)
                  (Option.bind (Json.member "time_s" row) Json.to_float_opt)
            | _ -> fail "no retained trace"));
    test_case "a sampled query's span tree round-trips at /trace/<id>" `Quick
      (fun () ->
        let s =
          Router.make ~trace_sample:1 (Workload.Casablanca.context ())
        in
        let resp =
          check_status "query" 200
            (handle s (post "/query" "{\"query\": \"man_woman\", \"k\": 2}"))
        in
        let id =
          match resp_trace_id resp with
          | Some id -> id
          | None -> fail "no X-Trace-Id on the query response"
        in
        (* the listing names it *)
        let listing =
          body_json "trace list"
            (check_status "trace list" 200 (handle s (get "/trace")))
        in
        (match listing with
        | Json.Array rows ->
            check bool "listed" true
              (List.exists
                 (fun row ->
                   Json.member "trace_id" row = Some (Json.String id))
                 rows)
        | _ -> fail "/trace is not an array");
        (* and the full tree renders as Chrome trace-event JSON *)
        let doc =
          body_json "chrome trace"
            (check_status "trace get" 200 (handle s (get ("/trace/" ^ id))))
        in
        check bool "top-level trace_id" true
          (Json.member "trace_id" doc = Some (Json.String id));
        (match Json.member "traceEvents" doc with
        | Some (Json.Array (_ :: _ as events)) ->
            let names =
              List.filter_map
                (fun e ->
                  match Json.member "name" e with
                  | Some (Json.String n) -> Some n
                  | _ -> None)
                events
            in
            check bool "root server.request span present" true
              (List.mem "server.request" names)
        | _ -> fail "no traceEvents");
        ignore
          (check_status "unknown id is 404" 404
             (handle s (get ("/trace/" ^ String.make 31 'a' ^ "b"))));
        ignore
          (check_status "invalid id is 400" 400
             (handle s (get "/trace/xyz"))));
    test_case "unsampled requests leave no trace" `Quick (fun () ->
        let s = fresh_state () in
        ignore (handle s (post "/query" "{\"query\": \"man_woman\"}"));
        check int "ring stays empty" 0
          (Obs.Tracestore.length (Router.tracestore s));
        check int "nothing counted" 0
          (Obs.Metrics.counter_value (Router.metrics s) "server.traced"));
    test_case "1-in-N sampling keeps every Nth request" `Quick (fun () ->
        let s =
          Router.make ~trace_sample:2 (Workload.Casablanca.context ())
        in
        for _ = 1 to 6 do
          ignore (handle s (post "/query" "{\"query\": \"man_woman\"}"))
        done;
        check int "half the requests retained" 3
          (Obs.Tracestore.length (Router.tracestore s)));
    test_case "the slow threshold retains retroactively" `Quick (fun () ->
        (* slow_s = 0: every request is slower than the threshold *)
        let s =
          Router.make ~trace_slow_s:0. (Workload.Casablanca.context ())
        in
        ignore (handle s (post "/query" "{\"query\": \"man_woman\"}"));
        check int "kept" 1 (Obs.Tracestore.length (Router.tracestore s));
        (* a threshold nothing reaches: traced but dropped *)
        let s =
          Router.make ~trace_slow_s:1000. (Workload.Casablanca.context ())
        in
        ignore (handle s (post "/query" "{\"query\": \"man_woman\"}"));
        check int "dropped" 0 (Obs.Tracestore.length (Router.tracestore s)));
    test_case "sampled and unsampled responses are byte-identical" `Quick
      (fun () ->
        let body = "{\"query\": \"man_woman and eventually moving_train\"}" in
        let plain = fresh_state () in
        let traced =
          Router.make ~trace_sample:1 (Workload.Casablanca.context ())
        in
        check string "same body"
          (handle plain (post "/query" body)).Http.body
          (handle traced (post "/query" body)).Http.body);
    test_case "/stats aggregates every request, consistent with the querylog"
      `Quick (fun () ->
        let querylog = Obs.Querylog.create ~threshold_s:0. () in
        let s =
          (* store-backed, so the picture layer runs and atom
             selectivities actually accumulate *)
          Router.make ~querylog (Context.of_store (Workload.Casablanca.store ()))
        in
        let q1 = "{\"query\": \"man_woman\"}" in
        let q2 = "{\"query\": \"gun until man_woman\"}" in
        ignore (check_status "q1" 200 (handle s (post "/query" q1)));
        ignore (check_status "q1 again" 200 (handle s (post "/query" q1)));
        ignore (check_status "q2" 200 (handle s (post "/query" q2)));
        (* a parse failure never reaches the evaluator, so neither ring
           nor collector should count it *)
        ignore (check_status "syntax error" 400 (handle s (post "/query" "{\"query\": \"((\"}")));
        let rows = Obs.Stats.queries (Router.stats s) in
        check int "two fingerprints" 2 (List.length rows);
        check int "stats total = querylog total"
          (Obs.Querylog.logged querylog)
          (List.fold_left (fun acc r -> acc + r.Obs.Stats.count) 0 rows);
        (match rows with
        | top :: _ ->
            check int "most-requested first" 2 top.Obs.Stats.count;
            check bool "ewma positive" true (top.Obs.Stats.ewma_latency_s > 0.)
        | [] -> fail "no stats rows");
        (match Obs.Stats.backends (Router.stats s) with
        | [ b ] ->
            check string "backend" "direct" b.Obs.Stats.backend;
            check int "three evaluated requests" 3 b.Obs.Stats.requests
        | rows -> failf "expected 1 backend row, got %d" (List.length rows));
        (* atom selectivities accumulated from the picture layer *)
        check bool "atoms observed" true
          (Obs.Stats.atoms (Router.stats s) <> []);
        (* and the route serves the same document *)
        let doc =
          body_json "stats"
            (check_status "stats" 200 (handle s (get "/stats")))
        in
        match Json.member "queries" doc with
        | Some (Json.Array rows') ->
            check int "route row count" (List.length rows) (List.length rows')
        | _ -> fail "/stats has no queries array");
    test_case "/metrics and /stats report the cache's resident words" `Quick
      (fun () ->
        let s = Router.make (Context.of_store (Workload.Casablanca.store ())) in
        ignore
          (check_status "query" 200
             (handle s (post "/query" "{\"query\": \"man_woman\"}")));
        let words =
          match Engine.Context.cache (Router.context s) with
          | Some c -> (Engine.Cache.stats c).Engine.Cache.words
          | None -> fail "no cache"
        in
        check bool "the query filled the cache" true (words > 0);
        let exposition =
          (check_status "metrics" 200 (handle s (get "/metrics"))).Http.body
        in
        check bool "cache_words gauge" true
          (Astring.String.is_infix
             ~affix:(Printf.sprintf "cache_words %d" words)
             exposition);
        let doc = body_json "stats" (check_status "stats" 200 (handle s (get "/stats"))) in
        match Option.bind (Json.member "cache" doc) (Json.member "words") with
        | Some (Json.Int w) -> check int "/stats cache.words" words w
        | _ -> fail "/stats has no cache.words");
    test_case "trace ids land on slow-query records" `Quick (fun () ->
        let querylog = Obs.Querylog.create ~threshold_s:0. () in
        let s = Router.make ~querylog (Workload.Casablanca.context ()) in
        ignore
          (handle s
             (with_header "x-trace-id" known_id
                (post "/query" "{\"query\": \"man_woman\"}")));
        match Obs.Querylog.records querylog with
        | [ r ] ->
            check (option string) "record joins by id" (Some known_id)
              r.Obs.Querylog.trace_id;
            check bool "jsonl carries it" true
              (Astring.String.is_infix ~affix:known_id
                 (Obs.Querylog.to_jsonl querylog))
        | rs -> failf "expected 1 record, got %d" (List.length rs));
  ]

(* --- live servers ------------------------------------------------------------ *)

let test_config =
  {
    Server.default_config with
    Server.workers = 2;
    queue_capacity = 16;
    request_timeout_s = 30.;
    io_timeout_s = 5.;
  }

let with_server ?(config = test_config) state f =
  let server = Server.start ~config state in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server)
    (fun () -> f (Server.port server))

let must = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "client error: %s" msg

let post_query ~port body =
  must
    (Client.request ~host:"127.0.0.1" ~port ~meth:"POST" ~target:"/query"
       ~body ())

let get_path ~port target =
  must (Client.request ~host:"127.0.0.1" ~port ~meth:"GET" ~target ())

let metric_value exposition name =
  (* the exposition is "name value" lines; histogram series have
     suffixed names, so match the exact line *)
  String.split_on_char '\n' exposition
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)

let warm_context_test () =
  (* the acceptance bar: a warm server builds the picture index once and
     answers the second identical query from the cache *)
  let state = Router.make (Context.of_store (Workload.Casablanca.store ())) in
  with_server state (fun port ->
      let q = "{\"query\": \"man_woman and eventually moving_train\"}" in
      let s1, _, b1 = post_query ~port q in
      let s2, _, b2 = post_query ~port q in
      Alcotest.(check int) "first answers" 200 s1;
      Alcotest.(check int) "second answers" 200 s2;
      Alcotest.(check string) "identical responses" b1 b2;
      let _, _, exposition = get_path ~port "/metrics" in
      Alcotest.(check (option int))
        "the index was built exactly once" (Some 1)
        (metric_value exposition "picture_index_builds");
      (* exactly the two query responses — counted once each, not once
         in the router and again at the socket (the scrape's own 2xx is
         counted after its exposition renders) *)
      Alcotest.(check (option int))
        "2xx responses counted once per response" (Some 2)
        (metric_value exposition "server_responses_2xx");
      match metric_value exposition "cache_hits" with
      | Some hits when hits > 0 -> ()
      | v ->
          Alcotest.failf "expected warm cache hits, exposition says %s"
            (match v with Some n -> string_of_int n | None -> "(absent)"))

(* --- concurrent-load differential -------------------------------------------

   N client threads fire the differential strata at a live server; every
   response must be byte-identical to what a sequential in-process
   evaluation of the same request produces.  Cache warmth may differ
   (the server's context is shared and warm, the reference is cold) —
   the protocol makes that invisible, which is exactly the claim. *)

let sample_stratum gen ~count rand =
  QCheck.Gen.generate ~n:(count * 4) ~rand (gen ~depth:2)
  |> List.filter (fun f ->
         Result.is_ok (Htl.Classify.check f)
         &&
         (* the wire carries text: only formulas whose pretty form
            re-parses can round-trip through the server *)
         match Htl.Parser.formula_of_string_opt (Htl.Pretty.to_string f) with
         | Ok f' -> Htl.Ast.equal f f'
         | Error _ -> false)
  |> List.filteri (fun i _ -> i < count)

let differential_queries () =
  let rand = Random.State.make [| 20260805 |] in
  List.concat_map
    (fun gen -> sample_stratum gen ~count:6 rand)
    [
      Helpers.gen_type1_formula;
      Helpers.gen_type2_formula;
      Helpers.gen_conjunctive_formula;
      Helpers.gen_closed_formula;
    ]
  |> List.map (fun f ->
         Json.to_string
           (Json.Obj
              [
                ("query", Json.String (Htl.Pretty.to_string f));
                ("k", Json.Int 5);
              ]))

let concurrent_differential ?(trace_sample = 0) ~domains () =
  let store = Workload.Casablanca.store () in
  let queries = differential_queries () in
  Alcotest.(check bool) "sampled a real workload" true (List.length queries > 12);
  (* sequential in-process reference over its own cold context — and no
     sampling, so a traced server must answer byte-identically to an
     untraced oracle *)
  let reference = Router.make (Context.of_store store) in
  let expected =
    List.map
      (fun body -> (Router.handle reference (post "/query" body)).Http.body)
      queries
  in
  let pool =
    if domains > 0 then Some (Parallel.Pool.create ~domains ()) else None
  in
  let ctx = Context.of_store store in
  let ctx =
    match pool with Some p -> Context.with_pool ~par_cutoff:0 ctx p | None -> ctx
  in
  let state = Router.make ~trace_sample ctx in
  Fun.protect
    ~finally:(fun () -> Option.iter Parallel.Pool.shutdown pool)
    (fun () ->
      with_server state (fun port ->
          let failures = ref [] in
          let failures_mutex = Mutex.create () in
          let client_thread offset =
            (* each client walks all queries, starting at its own offset,
               over one keep-alive connection *)
            let conn = Client.connect ~host:"127.0.0.1" ~port () in
            Fun.protect
              ~finally:(fun () -> Client.close conn)
              (fun () ->
                let n = List.length queries in
                List.iteri
                  (fun i () ->
                    let idx = (i + offset) mod n in
                    let body = List.nth queries idx in
                    let want = List.nth expected idx in
                    match
                      Client.roundtrip conn ~meth:"POST" ~target:"/query"
                        ~body ()
                    with
                    | Ok (200, _, got) when String.equal got want -> ()
                    | Ok (status, _, got) ->
                        Mutex.protect failures_mutex (fun () ->
                            failures :=
                              Printf.sprintf
                                "query %d: status %d, got %s, want %s" idx
                                status got want
                              :: !failures)
                    | Error msg ->
                        Mutex.protect failures_mutex (fun () ->
                            failures :=
                              Printf.sprintf "query %d: %s" idx msg
                              :: !failures))
                  (List.map (fun _ -> ()) queries))
          in
          let clients =
            List.init 4 (fun i -> Thread.create client_thread (i * 7))
          in
          List.iter Thread.join clients;
          (match !failures with
          | [] -> ()
          | f :: _ ->
              Alcotest.failf "%d divergent responses; first: %s"
                (List.length !failures) f);
          if trace_sample > 0 then begin
            (* the traced arm must actually have traced: 4 clients ×
               |queries| requests, 1 in [trace_sample] retained or
               overwritten in the bounded ring *)
            let added = Obs.Tracestore.added (Router.tracestore state) in
            let requests = 4 * List.length queries in
            Alcotest.(check int)
              "every sampled request left a trace"
              ((requests + trace_sample - 1) / trace_sample)
              added
          end))

(* --- fault injection ---------------------------------------------------------

   Broken clients must get the right status code, and the shared context
   must stay fully usable afterwards — no stuck mutex, no leaked span,
   /healthz green throughout. *)

let raw_socket port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let read_status fd =
  let buf = Bytes.create 4096 in
  let b = Buffer.create 256 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b buf 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  drain ();
  let s = Buffer.contents b in
  match String.split_on_char ' ' s with
  | _ :: code :: _ -> int_of_string_opt (String.sub code 0 3)
  | _ -> None

let send_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let check_health ~port name =
  let status, _, body = get_path ~port "/healthz" in
  Alcotest.(check int) (name ^ ": healthz status") 200 status;
  Alcotest.(check string) (name ^ ": healthz body") "ok\n" body

let fault_injection_test () =
  let state = fresh_state () in
  let config = { test_config with Server.io_timeout_s = 1. } in
  with_server ~config state (fun port ->
      (* truncated body: declared 100 bytes, sent 2, then EOF *)
      let fd = raw_socket port in
      send_raw fd "POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}";
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Alcotest.(check (option int)) "truncated body" (Some 400) (read_status fd);
      Unix.close fd;
      check_health ~port "after truncation";
      (* stalled mid-request: bytes then silence -> 408 within io_timeout *)
      let fd = raw_socket port in
      send_raw fd "POST /query HTTP/1.1\r\nContent-Le";
      Alcotest.(check (option int)) "stalled request" (Some 408)
        (read_status fd);
      Unix.close fd;
      check_health ~port "after stall";
      (* oversized payload *)
      let fd = raw_socket port in
      send_raw fd "POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
      Alcotest.(check (option int)) "oversized body" (Some 413)
        (read_status fd);
      Unix.close fd;
      check_health ~port "after oversize";
      (* mid-request disconnect: close without reading the response *)
      let fd = raw_socket port in
      send_raw fd "POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
      Unix.close fd;
      check_health ~port "after disconnect";
      (* malformed JSON and unknown routes through the well-behaved client *)
      let status, _, _ = post_query ~port "not json" in
      Alcotest.(check int) "malformed JSON" 400 status;
      let status, _, _ = get_path ~port "/no/such/route" in
      Alcotest.(check int) "unknown route" 404 status;
      (* the context still evaluates queries *)
      let status, _, _ = post_query ~port "{\"query\": \"man_woman\"}" in
      Alcotest.(check int) "query after the abuse" 200 status;
      let _, _, exposition = get_path ~port "/metrics" in
      match metric_value exposition "server_bad_requests" with
      | Some n when n >= 3 -> ()
      | v ->
          Alcotest.failf "bad requests under-counted: %s"
            (match v with Some n -> string_of_int n | None -> "(absent)"))

let admission_control_test () =
  let state = fresh_state () in
  let config =
    {
      test_config with
      Server.workers = 1;
      queue_capacity = 1;
      io_timeout_s = 5.;
    }
  in
  with_server ~config state (fun port ->
      (* occupy the only worker with a half-sent request... *)
      let busy = raw_socket port in
      send_raw busy "POST /query HTTP/1.1\r\nContent-Le";
      Thread.delay 0.2;
      (* ...fill the queue of one... *)
      let queued = raw_socket port in
      send_raw queued "GET /healthz HTTP/1.1\r\n";
      Thread.delay 0.2;
      (* ...and the next connection must be turned away *)
      let rejected = raw_socket port in
      let buf = Bytes.create 1024 in
      let n = Unix.read rejected buf 0 1024 in
      let head = Bytes.sub_string buf 0 n in
      Alcotest.(check bool) "429 status line" true
        (Astring.String.is_prefix ~affix:"HTTP/1.1 429" head);
      Alcotest.(check bool) "retry-after advertised" true
        (Astring.String.is_infix ~affix:"Retry-After: 1" head);
      Unix.close rejected;
      Unix.close busy;
      Unix.close queued;
      (* capacity frees up once the stuck request times out *)
      Thread.delay 0.3;
      check_health ~port "after saturation";
      let _, _, exposition = get_path ~port "/metrics" in
      Alcotest.(check (option int)) "rejection counted" (Some 1)
        (metric_value exposition "server_rejected"))

let request_timeout_test () =
  let state = fresh_state () in
  let config = { test_config with Server.request_timeout_s = 0. } in
  with_server ~config state (fun port ->
      let status, _, body = post_query ~port "{\"query\": \"man_woman\"}" in
      Alcotest.(check int) "query deadline already passed" 503 status;
      Alcotest.(check bool) "error body" true
        (Astring.String.is_infix ~affix:"timed out" body);
      (* light routes carry no deadline *)
      check_health ~port "healthz unaffected";
      let _, _, exposition = get_path ~port "/metrics" in
      match metric_value exposition "server_timeouts" with
      | Some n when n >= 1 -> ()
      | _ -> Alcotest.fail "timeout not counted")

(* This process's thread count, from the kernel. *)
let thread_count () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"Threads:" line ->
            int_of_string
              (String.trim (String.sub line 8 (String.length line - 8)))
        | Some _ -> go ()
        | None -> Alcotest.fail "no Threads: line in /proc/self/status"
      in
      go ())

let query_body q = Json.to_string (Json.Obj [ ("query", Json.String q) ])

(* One free object variable through a 150-deep until/eventually chain of
   distinct atoms: ~600 evaluator nodes, none of them long, so the
   deadline is checked every few milliseconds. *)
let long_query =
  let atom i = Printf.sprintf "(present(x) and speed(x) > %d)" i in
  let rec chain i =
    if i = 150 then atom i
    else Printf.sprintf "(%s until eventually %s)" (atom i) (chain (i + 1))
  in
  "exists x . " ^ chain 1

let mid_evaluation_deadline_test () =
  let store =
    Workload.Movies.random_store (Workload.Rng.make 5) ~videos:400
      ~branching:100 ~object_pool:6 ()
  in
  (* cache off, so every node computes; one context for both states, so
     the index the warm-up builds serves every timed evaluation *)
  let ctx = Context.without_cache (Context.of_store store) in
  let reference = Router.make ctx in
  let in_process body = Router.handle reference (post "/query" body) in
  let heavy = query_body long_query in
  ignore (in_process heavy);
  let t0 = Obs.Clock.now () in
  let untimed = in_process heavy in
  let untimed_s = Obs.Clock.now () -. t0 in
  Alcotest.(check int) "untimed evaluation answers" 200 untimed.Http.status;
  let querylog = Obs.Querylog.create ~threshold_s:0. () in
  let state = Router.make ~querylog ctx in
  let config =
    { test_config with Server.request_timeout_s = untimed_s /. 20. }
  in
  with_server ~config state (fun port ->
      let threads = thread_count () in
      let t0 = Obs.Clock.now () in
      let status, _, body = post_query ~port heavy in
      let served_s = Obs.Clock.now () -. t0 in
      Alcotest.(check int) "past the deadline" 503 status;
      Alcotest.(check bool) "timed-out body" true
        (Astring.String.is_infix ~affix:"query timed out" body);
      Alcotest.(check bool)
        (Printf.sprintf "answered in %.3f s, untimed %.3f s" served_s
           untimed_s)
        true
        (served_s < untimed_s /. 2.);
      Alcotest.(check int) "no thread left behind" threads (thread_count ());
      let _, _, slowlog = get_path ~port "/slowlog" in
      Alcotest.(check bool) "the slow log names the deadline" true
        (Astring.String.is_infix ~affix:"deadline exceeded" slowlog);
      check_health ~port "after the timeout";
      let light = query_body "exists z . (present(z) and type(z) = \"train\")" in
      let status, _, body = post_query ~port light in
      Alcotest.(check int) "the next query answers" 200 status;
      Alcotest.(check string) "byte-equal to in-process evaluation"
        (in_process light).Http.body body;
      (* Sharded.run_batch isolates Query.Error only: a deadline fails
         the whole batch, not one slot *)
      let status, _, body =
        must
          (Client.request ~host:"127.0.0.1" ~port ~meth:"POST"
             ~target:"/batch"
             ~body:
               (Json.to_string
                  (Json.Obj
                     [
                       ( "queries",
                         Json.Array
                           [
                             Json.String "exists z . present(z)";
                             Json.String long_query;
                           ] );
                     ]))
             ())
      in
      Alcotest.(check int) "a batch past its deadline" 503 status;
      Alcotest.(check bool) "whole-request body" true
        (Astring.String.is_infix ~affix:"query timed out" body))

let graceful_shutdown_test () =
  let state = fresh_state () in
  let server = Server.start ~config:test_config state in
  let port = Server.port server in
  let status, _, _ = get_path ~port "/healthz" in
  Alcotest.(check int) "serves before stop" 200 status;
  Server.stop server;
  Server.wait server;
  match
    Client.request ~timeout_s:1. ~host:"127.0.0.1" ~port ~meth:"GET"
      ~target:"/healthz" ()
  with
  | Error _ -> ()
  | Ok (status, _, _) ->
      Alcotest.failf "still answering (%d) after shutdown" status

let live_trace_roundtrip_test () =
  (* end to end over real sockets: the client names the trace, the
     sampled server keeps it, and /trace/<id> serves Chrome JSON *)
  let state = Router.make ~trace_sample:1 (Workload.Casablanca.context ()) in
  with_server state (fun port ->
      let status, headers, _ =
        must
          (Client.request ~host:"127.0.0.1" ~port ~meth:"POST"
             ~target:"/query"
             ~headers:[ ("X-Trace-Id", known_id) ]
             ~body:"{\"query\": \"man_woman\", \"k\": 3}" ())
      in
      Alcotest.(check int) "query answers" 200 status;
      Alcotest.(check (option string))
        "response echoes the client's id" (Some known_id)
        (List.assoc_opt "x-trace-id" headers);
      let status, _, body = get_path ~port ("/trace/" ^ known_id) in
      Alcotest.(check int) "trace served" 200 status;
      match Json.of_string body with
      | Error e -> Alcotest.failf "not JSON: %s" e
      | Ok doc -> (
          Alcotest.(check bool) "trace_id stamped" true
            (Json.member "trace_id" doc = Some (Json.String known_id));
          match Json.member "traceEvents" doc with
          | Some (Json.Array (_ :: _ as events)) ->
              Alcotest.(check bool)
                "every event args carry the id" true
                (List.for_all
                   (fun e ->
                     match Json.member "args" e with
                     | Some args ->
                         Json.member "trace_id" args
                         = Some (Json.String known_id)
                     | None -> false)
                   events)
          | _ -> Alcotest.fail "no traceEvents"))

let live_tests =
  let open Alcotest in
  [
    test_case "warm context: one index build, cache hits on repeats" `Quick
      warm_context_test;
    test_case "concurrent load matches sequential evaluation (no pool)"
      `Quick
      (concurrent_differential ~domains:0);
    test_case "concurrent load matches sequential evaluation (2 domains)"
      `Quick
      (concurrent_differential ~domains:2);
    test_case "concurrent sampled tracing never perturbs responses" `Quick
      (concurrent_differential ~trace_sample:2 ~domains:0);
    test_case "a client-named trace round-trips over sockets" `Quick
      live_trace_roundtrip_test;
    test_case "fault injection leaves the service healthy" `Quick
      fault_injection_test;
    test_case "admission control: 429 past the queue bound" `Quick
      admission_control_test;
    test_case "request deadline: heavy routes 503, light routes fine" `Quick
      request_timeout_test;
    test_case "request deadline: evaluation stops mid-query, no thread left"
      `Quick mid_evaluation_deadline_test;
    test_case "graceful shutdown stops answering" `Quick
      graceful_shutdown_test;
  ]

let suites =
  [
    ("server.http", http_parser_tests @ http_writer_tests);
    ("server.wire", wire_tests);
    ("server.router", router_tests);
    ("server.ingest", ingest_tests);
    ("server.exposition", exposition_tests);
    ("server.tracing", tracing_tests);
    ("server.live", live_tests);
  ]
