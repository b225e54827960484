(* Tests for the observability layer (lib/obs + EXPLAIN) and the Topk
   edge behaviour: span nesting and attributes, the metrics registry's
   kinds and snapshots, top_k's lazy expansion against a naive oracle
   and its k-edge cases, and EXPLAIN's static/analyzed trees on both
   backends. *)

open Engine
module Sim_list = Simlist.Sim_list
module Interval = Simlist.Interval
module Sim = Simlist.Sim
module C = Workload.Casablanca

let parse = Htl.Parser.formula_of_string

(* --- Trace ---------------------------------------------------------------- *)

let trace_tests =
  let open Alcotest in
  [
    test_case "spans nest and close" `Quick (fun () ->
        let tr = Obs.Trace.create () in
        let r =
          Obs.Trace.with_span tr "outer" (fun () ->
              Obs.Trace.with_span tr "inner" (fun () -> 41) + 1)
        in
        check int "result threads through" 42 r;
        match Obs.Trace.spans tr with
        | [ outer; inner ] ->
            check string "outer first (start order)" "outer"
              outer.Obs.Trace.name;
            check int "outer is a root" 0 outer.Obs.Trace.parent;
            check int "inner nests under outer" outer.Obs.Trace.id
              inner.Obs.Trace.parent;
            check bool "outer closed" false
              (Float.is_nan outer.Obs.Trace.stop_s);
            check bool "inner closed" false
              (Float.is_nan inner.Obs.Trace.stop_s);
            check bool "durations are non-negative" true
              (Obs.Trace.duration_s inner >= Some 0.
              && Obs.Trace.duration_s outer >= Some 0.)
        | spans -> failf "expected 2 spans, got %d" (List.length spans));
    test_case "spans close on exceptions" `Quick (fun () ->
        let tr = Obs.Trace.create () in
        (try Obs.Trace.with_span tr "boom" (fun () -> failwith "boom")
         with Failure _ -> ());
        match Obs.Trace.spans tr with
        | [ s ] ->
            check bool "closed despite the raise" false
              (Float.is_nan s.Obs.Trace.stop_s)
        | spans -> failf "expected 1 span, got %d" (List.length spans));
    test_case "add_attr targets the innermost open span" `Quick (fun () ->
        let tr = Obs.Trace.create () in
        Obs.Trace.with_span tr "outer" (fun () ->
            Obs.Trace.with_span tr "inner" (fun () ->
                Obs.Trace.add_attr tr "k" "inner-value");
            Obs.Trace.add_attr tr "k" "outer-value");
        (match Obs.Trace.spans tr with
        | [ outer; inner ] ->
            check (option string) "inner attr" (Some "inner-value")
              (Obs.Trace.attr inner "k");
            check (option string) "outer attr" (Some "outer-value")
              (Obs.Trace.attr outer "k")
        | _ -> fail "expected 2 spans");
        (* attrs on a tracer with nothing open are dropped, not an error *)
        Obs.Trace.add_attr tr "orphan" "x");
    test_case "summarize groups by name, largest total first" `Quick
      (fun () ->
        let tr = Obs.Trace.create () in
        Obs.Trace.with_span tr "a" (fun () ->
            Obs.Trace.with_span tr "b" (fun () -> ()));
        Obs.Trace.with_span tr "b" (fun () -> ());
        let rows = Obs.Trace.summarize tr in
        check int "two names" 2 (List.length rows);
        let b = List.find (fun r -> r.Obs.Trace.sname = "b") rows in
        check int "b counted twice" 2 b.Obs.Trace.count;
        (* totals of sub-microsecond spans are noise, so assert the
           ordering contract against the totals it actually computed *)
        (match rows with
        | first :: second :: _ ->
            check bool "sorted by total, largest first" true
              (first.Obs.Trace.total_s >= second.Obs.Trace.total_s)
        | _ -> fail "expected 2 rows");
        Obs.Trace.clear tr;
        check int "clear empties the recorder" 0
          (List.length (Obs.Trace.spans tr)));
  ]

(* --- Metrics --------------------------------------------------------------- *)

let metrics_tests =
  let open Alcotest in
  [
    test_case "counters, gauges and histograms" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "c";
        Obs.Metrics.incr m ~by:4 "c";
        Obs.Metrics.set_gauge m "g" 2.5;
        Obs.Metrics.observe m "h" 1.0;
        Obs.Metrics.observe m "h" 3.0;
        check int "counter" 5 (Obs.Metrics.counter_value m "c");
        (match Obs.Metrics.find m "g" with
        | Some (Obs.Metrics.Gauge v) -> check (float 0.) "gauge" 2.5 v
        | _ -> fail "gauge missing");
        (match Obs.Metrics.find m "h" with
        | Some (Obs.Metrics.Histogram h) ->
            check int "histogram count" 2 h.Obs.Metrics.count;
            check (float 1e-9) "histogram sum" 4.0 h.Obs.Metrics.sum;
            check (float 0.) "histogram min" 1.0 h.Obs.Metrics.min;
            check (float 0.) "histogram max" 3.0 h.Obs.Metrics.max
        | _ -> fail "histogram missing");
        check (list string) "snapshot sorted by name" [ "c"; "g"; "h" ]
          (List.map fst (Obs.Metrics.snapshot m));
        Obs.Metrics.clear m;
        check int "clear" 0 (List.length (Obs.Metrics.snapshot m)));
    test_case "a name keeps its kind" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "x";
        check_raises "gauge reuse of a counter name"
          (Invalid_argument
             "Obs.Metrics: \"x\" already registered with another kind")
          (fun () -> Obs.Metrics.set_gauge m "x" 1.);
        check int "counter untouched" 1 (Obs.Metrics.counter_value m "x"));
    test_case "missing names read as absent" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        check (option reject) "find" None (Obs.Metrics.find m "nope");
        check int "counter_value" 0 (Obs.Metrics.counter_value m "nope"));
  ]

(* --- Topk ------------------------------------------------------------------ *)

(* the naive semantics top_k replaced: materialise every id, sort by
   (value desc, id asc), take k *)
let naive_top_k list ~k =
  let max = Sim_list.max_sim list in
  let all =
    List.concat_map
      (fun (iv, v) ->
        List.init (Interval.length iv) (fun i -> (Interval.lo iv + i, v)))
      (Sim_list.entries list)
  in
  let sorted =
    List.sort
      (fun (id1, v1) (id2, v2) ->
        match Float.compare v2 v1 with 0 -> compare id1 id2 | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted
  |> List.map (fun (id, v) -> (id, Sim.make ~actual:v ~max))

let sample_list =
  (* ties across intervals (1.0 twice) and a long interval to expand *)
  Sim_list.of_entries ~max:2.
    [
      (Interval.make 1 3, 1.0);
      (Interval.make 5 20, 2.0);
      (Interval.make 30 31, 1.0);
      (Interval.make 40 40, 0.5);
    ]

let ids ranked = List.map fst ranked

(* random disjoint entries (gap/len/value triples laid out left to
   right; values from a small set so ties actually occur) + a small k *)
let arb_entries_and_k =
  let open QCheck in
  let gen =
    Gen.(
      pair
        (list_size (int_bound 8)
           (triple (int_bound 3) (int_range 1 4) (int_range 1 4)))
        (int_bound 30)
      >|= fun (pieces, k) ->
      let _, entries =
        List.fold_left
          (fun (pos, acc) (gap, len, v) ->
            let lo = pos + gap + 1 in
            let hi = lo + len - 1 in
            (hi, (Interval.make lo hi, float_of_int v /. 2.) :: acc))
          (0, []) pieces
      in
      (List.rev entries, k))
  in
  let print (entries, k) =
    Printf.sprintf "k=%d %s" k
      (String.concat ";"
         (List.map
            (fun (iv, v) ->
              Printf.sprintf "[%d-%d]=%.1f" (Interval.lo iv) (Interval.hi iv)
                v)
            entries))
  in
  make ~print gen

(* Heavy ties: up to 24 entries over two values, often adjacent (equal
   neighbours coalesce), so the bounded heap keeps and rejects entries
   of equal value all the time and only the start breaks the tie. *)
let arb_tied_entries =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_bound 24)
        (triple (int_bound 2) (int_range 1 3) (int_range 1 2))
      >|= fun pieces ->
      let _, entries =
        List.fold_left
          (fun (pos, acc) (gap, len, v) ->
            let lo = pos + gap + 1 in
            let hi = lo + len - 1 in
            (hi, (Interval.make lo hi, float_of_int v) :: acc))
          (0, []) pieces
      in
      List.rev entries)
  in
  let print entries =
    String.concat ";"
      (List.map
         (fun (iv, v) ->
           Printf.sprintf "[%d-%d]=%.0f" (Interval.lo iv) (Interval.hi iv) v)
         entries)
  in
  make ~print gen

(* k at the edges of the entry count m, where the heap's capacity
   (min k m) and the id expansion meet *)
let edge_ks m =
  List.filter (fun k -> k >= 0) [ 0; 1; m - 1; m; m + 5; 10 * m ]

let same_ranking fast slow =
  List.length fast = List.length slow
  && List.for_all2
       (fun (id1, s1) (id2, s2) ->
         id1 = id2 && Float.abs (Sim.actual s1 -. Sim.actual s2) < 1e-12)
       fast slow

let topk_tests =
  let open Alcotest in
  [
    test_case "k = 0 is empty, negative k raises" `Quick (fun () ->
        check (list int) "k=0" [] (ids (Topk.top_k sample_list ~k:0));
        check_raises "negative" (Invalid_argument "Topk.top_k: negative k (-1)")
          (fun () -> ignore (Topk.top_k sample_list ~k:(-1))));
    test_case "k beyond the population returns every segment" `Quick
      (fun () ->
        let all = Topk.top_k sample_list ~k:1000 in
        check int "population" (3 + 16 + 2 + 1) (List.length all);
        check (list int) "ranked ids"
          (List.init 16 (fun i -> 5 + i) @ [ 1; 2; 3; 30; 31; 40 ])
          (ids all));
    test_case "ties break by id across intervals" `Quick (fun () ->
        (* after the sixteen 2.0-ids come the 1.0-ids: 1,2,3 before 30,31 *)
        check (list int) "top 19"
          (List.init 16 (fun i -> 5 + i) @ [ 1; 2; 3 ])
          (ids (Topk.top_k sample_list ~k:19)));
    test_case "values carry the list's max" `Quick (fun () ->
        match Topk.top_k sample_list ~k:1 with
        | [ (5, s) ] ->
            check (float 0.) "actual" 2.0 (Sim.actual s);
            check (float 0.) "fraction" 1.0 (Sim.fraction s)
        | _ -> fail "expected the first 2.0 segment");
    Helpers.qtest ~count:300 "top_k = naive top_k"
      (fun (entries, k) ->
        let list = Sim_list.of_entries ~max:2. entries in
        same_ranking (Topk.top_k list ~k) (naive_top_k list ~k))
      arb_entries_and_k;
    Helpers.qtest ~count:300 "top_k = naive top_k (heavy ties, edge k)"
      (fun entries ->
        let list = Sim_list.of_entries ~max:2. entries in
        List.for_all
          (fun k -> same_ranking (Topk.top_k list ~k) (naive_top_k list ~k))
          (edge_ks (Sim_list.length list)))
      arb_tied_entries;
    Helpers.qtest ~count:300 "top_k k is a prefix of top_k (k+1)"
      (fun (entries, k) ->
        let list = Sim_list.of_entries ~max:2. entries in
        let smaller = Topk.top_k list ~k in
        let larger = Topk.top_k list ~k:(k + 1) in
        List.length larger >= List.length smaller
        && List.for_all2
             (fun (id1, s1) (id2, s2) ->
               id1 = id2 && Sim.actual s1 = Sim.actual s2)
             smaller
             (List.filteri (fun i _ -> i < List.length smaller) larger))
      arb_entries_and_k;
  ]

(* --- EXPLAIN ---------------------------------------------------------------- *)

let rec find_node p (n : Explain.node) =
  if p n then Some n else List.find_map (find_node p) n.Explain.children

let explain_tests =
  let open Alcotest in
  [
    test_case "static explain: tree without timings" `Quick (fun () ->
        let ctx = C.context () in
        let r = Query.explain ctx (parse C.query1) in
        check string "backend" "direct" r.Explain.backend;
        check bool "type (1)" true (r.Explain.cls = Htl.Classify.Type1);
        check bool "not analyzed" false r.Explain.analyzed;
        check (option (float 0.)) "no total" None r.Explain.total_s;
        check string "root" "type1.and" r.Explain.tree.Explain.label;
        check int "two children" 2
          (List.length r.Explain.tree.Explain.children);
        let untimed (n : Explain.node) = n.Explain.timing = Explain.Untimed in
        check bool "every node untimed" true
          (Option.is_none
             (find_node (fun n -> not (untimed n)) r.Explain.tree));
        (* type (1) folds And pairwise and never reorders, so no node
           may print a join order *)
        check bool "no est_join_order" true
          (Option.is_none
             (find_node
                (fun n -> List.mem_assoc "est_join_order" n.Explain.attrs)
                r.Explain.tree)));
    test_case "analyzed explain: per-node timings and total" `Quick (fun () ->
        let ctx = Context.without_cache (C.context ()) in
        let r = Query.explain ~analyze:true ctx (parse C.query1) in
        check bool "analyzed" true r.Explain.analyzed;
        check bool "has a total" true (Option.is_some r.Explain.total_s);
        let timed (n : Explain.node) =
          match n.Explain.timing with Explain.Timed _ -> true | _ -> false
        in
        check bool "every node timed" true
          (Option.is_none (find_node (fun n -> not (timed n)) r.Explain.tree)));
    test_case "a warm cache reads as cached" `Quick (fun () ->
        let ctx = Context.with_fresh_cache (C.context ()) in
        ignore (Query.run ctx (parse C.query1));
        let r = Query.explain ~analyze:true ctx (parse C.query1) in
        check bool "some node cached" true
          (Option.is_some
             (find_node
                (fun n -> n.Explain.timing = Explain.Cached)
                r.Explain.tree)));
    test_case "analyzed sql explain carries the script's plans" `Quick
      (fun () ->
        let ctx = C.context () in
        let r =
          Query.explain ~backend:Query.Sql_backend_choice ~analyze:true ctx
            (parse "man_woman until moving_train")
        in
        check string "backend" "sql" r.Explain.backend;
        check string "root" "sql.until" r.Explain.tree.Explain.label;
        check bool "script captured" true (r.Explain.sql_script <> []);
        check bool "a CREATE TABLE AS plan appears" true
          (List.exists
             (fun n ->
               Option.is_some
                 (find_node
                    (fun c ->
                      String.length c.Explain.label >= 4
                      && String.sub c.Explain.label 0 4 = "Scan")
                    n))
             r.Explain.sql_script));
    test_case "static sql explain has no script" `Quick (fun () ->
        let ctx = C.context () in
        let r =
          Query.explain ~backend:Query.Sql_backend_choice ctx
            (parse "man_woman until moving_train")
        in
        check bool "no script" true (r.Explain.sql_script = []));
    test_case "And-reorder explain records the join order" `Quick (fun () ->
        let rng = Workload.Rng.make 123 in
        let store =
          Workload.Movies.random_store rng ~videos:2 ~branching:6
            ~object_pool:8 ()
        in
        let ctx = Context.of_store store in
        (* conjuncts share the free x, so this is type (2): it goes
           through the table algorithms, which fold the chain as one
           flattened And *)
        let f =
          parse
            "exists x . (present(x) and type(x) = \"train\" and eventually \
             present(x))"
        in
        let r = Query.explain ~analyze:true ctx f in
        match
          find_node (fun n -> n.Explain.label = "direct.and") r.Explain.tree
        with
        | None -> fail "no direct.and node"
        | Some n ->
            check int "three conjuncts" 3 (List.length n.Explain.children);
            check bool "join_order recorded" true
              (List.mem_assoc "join_order" n.Explain.attrs));
    test_case "analyzed explain shows what a freeze's domain dropped" `Quick
      (fun () ->
        let store =
          Workload.Movies.random_store (Workload.Rng.make 123) ~videos:2
            ~branching:6 ~object_pool:8 ()
        in
        let ctx = Context.without_cache (Context.of_store store) in
        let r =
          Query.explain ~analyze:true ctx
            (parse "exists x . [v <- speed(x)] (speed(x) >= v until v >= speed(x))")
        in
        let dropped (n : Explain.node) =
          Option.map int_of_string (List.assoc_opt "regions_dropped" n.Explain.attrs)
        in
        match find_node (fun n -> dropped n <> None) r.Explain.tree with
        | None -> fail "no node reports regions_dropped"
        | Some n ->
            check string "on an atom" "direct.atom" n.Explain.label;
            check bool "regions_dropped > 0" true
              (Option.get (dropped n) > 0));
    test_case "explain rejects what run rejects" `Quick (fun () ->
        let ctx = C.context () in
        let general = Htl.Ast.Not (parse "man_woman") in
        (match Query.explain ctx general with
        | _ -> fail "explain accepted a general formula"
        | exception Query.Error msg ->
            check bool "message names the reason" true
              (String.length msg > 0));
        match Query.run ctx general with
        | _ -> fail "run accepted a general formula"
        | exception Query.Error _ -> ());
    test_case "query.run span and metrics record" `Quick (fun () ->
        let tr = Obs.Trace.create () and m = Obs.Metrics.create () in
        let ctx = Context.with_metrics (Context.with_tracer (C.context ()) tr) m in
        ignore (Query.run ctx (parse C.query1));
        check bool "query.run span recorded" true
          (List.exists
             (fun s -> s.Obs.Trace.name = "query.run")
             (Obs.Trace.spans tr));
        check int "query.count" 1 (Obs.Metrics.counter_value m "query.count");
        (match Obs.Metrics.find m "query.latency_s" with
        | Some (Obs.Metrics.Histogram h) ->
            check int "one latency sample" 1 h.Obs.Metrics.count
        | _ -> fail "query.latency_s missing");
        match Query.run ctx (Htl.Ast.Not (parse "man_woman")) with
        | _ -> fail "general formula accepted"
        | exception Query.Error _ ->
            check int "query.errors" 1
              (Obs.Metrics.counter_value m "query.errors"));
  ]

(* --- Json ------------------------------------------------------------------ *)

module J = Obs.Json

let json_tests =
  let open Alcotest in
  [
    test_case "escape covers RFC 8259 section 7" `Quick (fun () ->
        check string "short escape forms" {|a\"b\\c\nd\te\rf\bg\fh|}
          (J.escape "a\"b\\c\nd\te\rf\bg\x0ch");
        check string "other C0 controls as \\u00XX" {|\u0001\u001f|}
          (J.escape "\x01\x1f");
        (* bytes >= 0x20 pass through: UTF-8 survives unmangled *)
        check string "plain text untouched" "h\xc3\xa9llo" (J.escape "h\xc3\xa9llo"));
    test_case "to_string renders one line; non-finite floats are null" `Quick
      (fun () ->
        let doc =
          J.Obj
            [
              ("a", J.Array [ J.Int 1; J.Float 2.5; J.Bool false; J.Null ]);
              ("s", J.String "x\ny");
            ]
        in
        check string "compact form" {|{"a": [1, 2.5, false, null], "s": "x\ny"}|}
          (J.to_string doc);
        check string "nan/inf collapse to null" "[null, null]"
          (J.to_string (J.Array [ J.Float Float.nan; J.Float Float.infinity ])));
    test_case "of_string parses documents and rejects garbage" `Quick (fun () ->
        (match J.of_string {| {"k": [1, -2.5e1, "v", true, null]} |} with
        | Ok
            (J.Obj
              [
                ( "k",
                  J.Array
                    [ J.Int 1; J.Float f; J.String "v"; J.Bool true; J.Null ] );
              ]) ->
            check (float 1e-12) "float token" (-25.) f
        | Ok v -> failf "unexpected shape: %s" (J.to_string v)
        | Error e -> failf "parse error: %s" e);
        check bool "trailing garbage rejected" true
          (Result.is_error (J.of_string "{} x"));
        check bool "bare junk rejected" true (Result.is_error (J.of_string "nope"));
        check bool "unterminated string rejected" true
          (Result.is_error (J.of_string {|"abc|}));
        check bool "unescaped control char rejected" true
          (Result.is_error (J.of_string "\"a\nb\"")));
    test_case "\\uXXXX escapes decode to UTF-8" `Quick (fun () ->
        match J.of_string {|"\u00e9 \u2603 \ud83d\ude00 \/"|} with
        | Ok (J.String s) ->
            check string "two-, three- and four-byte code points"
              "\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x98\x80 /" s
        | Ok v -> failf "expected a string, got %s" (J.to_string v)
        | Error e -> failf "parse error: %s" e);
    Helpers.qtest ~count:500 "strings round-trip through to_string/of_string"
      (fun s ->
        match J.of_string (J.to_string (J.String s)) with
        | Ok (J.String s') -> String.equal s' s
        | _ -> false)
      QCheck.string;
    Helpers.qtest ~count:300 "scalar records round-trip"
      (fun (i, f, s) ->
        let doc =
          J.Obj [ ("i", J.Int i); ("f", J.Float f); ("s", J.String s) ]
        in
        match J.of_string (J.to_string doc) with
        | Ok (J.Obj [ ("i", J.Int i'); ("f", f'); ("s", J.String s') ]) ->
            i' = i && String.equal s' s
            && (match f' with
               | J.Float g -> Float.equal g f
               | J.Int m -> Float.equal (float_of_int m) f
               | _ -> false)
        | _ -> false)
      QCheck.(triple int float string);
  ]

(* --- Export ---------------------------------------------------------------- *)

(* A fake clock stepping 1 s per read makes every exported timestamp a
   round number, so the Chrome-trace and summarize tests are exact
   goldens instead of tolerance games.  Restore the wall clock in a
   [Fun.protect]: a leaked fake source would corrupt every later
   timing. *)
let with_fake_clock f =
  let t = ref 0. in
  Obs.Clock.set_source (fun () ->
      let v = !t in
      t := v +. 1.;
      v);
  Fun.protect ~finally:Obs.Clock.use_wall_clock f

let export_tests =
  let open Alcotest in
  [
    test_case "prometheus exposition golden" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m ~by:3 "cache.hits";
        Obs.Metrics.set_gauge m "pool.domains" 4.;
        (* one sample per region: a mid-range bucket, a small bucket,
           the overflow *)
        Obs.Metrics.observe m "query.latency_s" 0.5;
        Obs.Metrics.observe m "query.latency_s" 0.002;
        Obs.Metrics.observe m "query.latency_s" 5000.;
        let pf f =
          if Float.is_integer f then Printf.sprintf "%.0f" f
          else Printf.sprintf "%.9g" f
        in
        let b = Buffer.create 512 in
        Buffer.add_string b "# TYPE cache_hits counter\ncache_hits 3\n";
        Buffer.add_string b "# TYPE pool_domains gauge\npool_domains 4\n";
        Buffer.add_string b "# TYPE query_latency_s histogram\n";
        Array.iteri
          (fun i bound ->
            (* cumulative: 0.002 <= 3.16e-03 (index 7), 0.5 <= 1 (12) *)
            let cum = if i < 7 then 0 else if i < 12 then 1 else 2 in
            Printf.bprintf b "query_latency_s_bucket{le=\"%s\"} %d\n" (pf bound)
              cum)
          Obs.Metrics.bucket_bounds;
        Buffer.add_string b "query_latency_s_bucket{le=\"+Inf\"} 3\n";
        Printf.bprintf b "query_latency_s_sum %s\n" (pf (0.5 +. 0.002 +. 5000.));
        Buffer.add_string b "query_latency_s_count 3\n";
        check string "text format v0.0.4" (Buffer.contents b)
          (Obs.Export.prometheus m));
    test_case "chrome trace golden under a fake clock" `Quick (fun () ->
        with_fake_clock (fun () ->
            let tr = Obs.Trace.create () in
            Obs.Trace.with_span tr "outer" ~attrs:[ ("k", "v") ] (fun () ->
                Obs.Trace.with_span tr "inner" (fun () -> ()));
            check string "complete events, relative microseconds"
              ({|{"traceEvents": [{"name": "outer", "cat": "htl", "ph": "X", |}
              ^ {|"ts": 0.0, "dur": 3000000.0, "pid": 1, "tid": 1, "args": |}
              ^ {|{"k": "v", "span_id": 1, "parent": 0}}, {"name": "inner", |}
              ^ {|"cat": "htl", "ph": "X", "ts": 1000000.0, "dur": 1000000.0, |}
              ^ {|"pid": 1, "tid": 1, "args": {"span_id": 2, "parent": 1}}], |}
              ^ {|"displayTimeUnit": "ms"}|})
              (Obs.Export.chrome_trace tr)));
    test_case "an open span exports its elapsed time and an open arg" `Quick
      (fun () ->
        with_fake_clock (fun () ->
            let tr = Obs.Trace.create () in
            let s = Obs.Trace.start tr "solo" in
            check string "elapsed so far, flagged open"
              ({|{"traceEvents": [{"name": "solo", "cat": "htl", "ph": "X", |}
              ^ {|"ts": 0.0, "dur": 1000000.0, "pid": 1, "tid": 1, "args": |}
              ^ {|{"span_id": 1, "parent": 0, "open": "true"}}], |}
              ^ {|"displayTimeUnit": "ms"}|})
              (Obs.Export.chrome_trace tr);
            Obs.Trace.stop tr s));
    test_case "summarize counts open spans at elapsed time" `Quick (fun () ->
        with_fake_clock (fun () ->
            let tr = Obs.Trace.create () in
            let s = Obs.Trace.start tr "work" in
            (* start read t=0; summarize reads t=1 *)
            (match Obs.Trace.summarize tr with
            | [ row ] ->
                check (float 1e-9) "elapsed so far, not 0" 1. row.Obs.Trace.total_s;
                check int "marked open" 1 row.Obs.Trace.open_count
            | rows -> failf "expected 1 row, got %d" (List.length rows));
            let rendered = Format.asprintf "%a" Obs.Trace.pp_summary tr in
            check bool "summary table flags the approximation" true
              (Helpers.contains rendered "(1 open)");
            Obs.Trace.stop tr s;
            match Obs.Trace.summarize tr with
            | [ row ] ->
                check (float 1e-9) "closed span keeps its real duration" 3.
                  row.Obs.Trace.total_s;
                check int "no longer open" 0 row.Obs.Trace.open_count
            | rows -> failf "expected 1 row, got %d" (List.length rows)));
    test_case "spans_jsonl lines parse back to the recorded spans" `Quick
      (fun () ->
        let tr = Obs.Trace.create () in
        Obs.Trace.with_span tr "outer" (fun () ->
            Obs.Trace.with_span tr "inner" ~attrs:[ ("rows", "7") ] (fun () ->
                ()));
        let lines =
          List.filter
            (fun l -> l <> "")
            (String.split_on_char '\n' (Obs.Export.spans_jsonl tr))
        in
        check int "one line per span" 2 (List.length lines);
        List.iteri
          (fun i line ->
            match J.of_string line with
            | Ok doc ->
                check (option int) "id in start order" (Some (i + 1))
                  (Option.bind (J.member "id" doc) (function
                    | J.Int n -> Some n
                    | _ -> None));
                check bool "stop_s present (closed)" true
                  (match J.member "stop_s" doc with
                  | Some (J.Float _) -> true
                  | _ -> false)
            | Error e -> failf "line %d is not JSON: %s" i e)
          lines;
        check bool "attrs survive" true
          (Helpers.contains (Obs.Export.spans_jsonl tr) {|"rows": "7"|}));
  ]

(* --- Querylog --------------------------------------------------------------- *)

let ql_record ?(latency = 1.) ?(hits = 0) ?(misses = 0) ?error name =
  {
    Obs.Querylog.time_s = 0.;
    formula_id = 1;
    formula = name;
    backend = "direct";
    cls = "type1";
    latency_s = latency;
    cache_hits = hits;
    cache_misses = misses;
    segments_scanned = [];
    resources = Obs.Resource.zero;
    shards = [];
    trace_id = None;
    error;
  }

let querylog_tests =
  let open Alcotest in
  let names ql =
    List.map (fun r -> r.Obs.Querylog.formula) (Obs.Querylog.records ql)
  in
  [
    test_case "threshold gates what is recorded" `Quick (fun () ->
        let ql = Obs.Querylog.create ~threshold_s:0.5 () in
        check bool "below" false (Obs.Querylog.should_log ql ~latency_s:0.4);
        check bool "at" true (Obs.Querylog.should_log ql ~latency_s:0.5);
        Obs.Querylog.record ql (ql_record ~latency:0.1 "fast");
        Obs.Querylog.record ql (ql_record ~latency:0.9 "slow");
        check (list string) "only the slow one" [ "slow" ] (names ql);
        check int "logged counts accepted records" 1 (Obs.Querylog.logged ql));
    test_case "the ring overwrites the oldest record" `Quick (fun () ->
        let ql = Obs.Querylog.create ~capacity:2 ~threshold_s:0. () in
        List.iter
          (fun n -> Obs.Querylog.record ql (ql_record n))
          [ "a"; "b"; "c" ];
        check (list string) "oldest dropped, order kept" [ "b"; "c" ] (names ql);
        check int "length capped" 2 (Obs.Querylog.length ql);
        check int "logged keeps counting" 3 (Obs.Querylog.logged ql);
        Obs.Querylog.clear ql;
        check int "clear empties" 0 (Obs.Querylog.length ql);
        check int "clear resets logged" 0 (Obs.Querylog.logged ql));
    test_case "capacity below 1 is rejected" `Quick (fun () ->
        check_raises "invalid capacity"
          (Invalid_argument "Obs.Querylog.create: capacity 0 < 1") (fun () ->
            ignore (Obs.Querylog.create ~capacity:0 ~threshold_s:0. ())));
    test_case "hit_ratio" `Quick (fun () ->
        check (float 1e-9) "no probes" 0.
          (Obs.Querylog.hit_ratio (ql_record "q"));
        check (float 1e-9) "3 of 4" 0.75
          (Obs.Querylog.hit_ratio (ql_record ~hits:3 ~misses:1 "q")));
    test_case "to_jsonl parses back and carries the error field" `Quick
      (fun () ->
        let ql = Obs.Querylog.create ~threshold_s:0. () in
        Obs.Querylog.record ql (ql_record ~hits:1 ~misses:1 "ok");
        Obs.Querylog.record ql (ql_record ~error:"boom" "bad");
        let docs =
          List.map
            (fun l ->
              match J.of_string l with
              | Ok d -> d
              | Error e -> failf "not JSON: %s" e)
            (List.filter
               (fun l -> l <> "")
               (String.split_on_char '\n' (Obs.Querylog.to_jsonl ql)))
        in
        match docs with
        | [ ok; bad ] ->
            check (option string) "class" (Some "type1")
              (Option.bind (J.member "class" ok) (function
                | J.String s -> Some s
                | _ -> None));
            check (option (float 1e-9)) "hit ratio computed" (Some 0.5)
              (Option.bind (J.member "cache_hit_ratio" ok) J.to_float_opt);
            check bool "gc object present" true
              (Option.is_some
                 (Option.bind (J.member "gc" ok) (J.member "minor_words")));
            check bool "no error field on success" true
              (J.member "error" ok = None);
            check (option string) "error carried" (Some "boom")
              (Option.bind (J.member "error" bad) (function
                | J.String s -> Some s
                | _ -> None))
        | docs -> failf "expected 2 lines, got %d" (List.length docs));
    test_case "Query.run feeds the slow-query log" `Quick (fun () ->
        let ql = Obs.Querylog.create ~threshold_s:0. () in
        let ctx =
          Context.with_querylog
            (Context.with_metrics (C.context ()) (Obs.Metrics.create ()))
            ql
        in
        let f = parse C.query1 in
        ignore (Query.run ctx f);
        match Obs.Querylog.records ql with
        | [ r ] ->
            check string "backend" "direct" r.Obs.Querylog.backend;
            check int "hash-consed fingerprint" (Htl.Hcons.intern_id f)
              r.Obs.Querylog.formula_id;
            check bool "classified" true (r.Obs.Querylog.cls <> "unsupported");
            check bool "latency non-negative" true (r.Obs.Querylog.latency_s >= 0.);
            check (option string) "no error" None r.Obs.Querylog.error;
            List.iter
              (fun (k, v) ->
                check bool "scan delta keys carry the prefix" true
                  (String.starts_with ~prefix:"picture.segments_scanned" k);
                check bool "scan deltas positive" true (v > 0))
              r.Obs.Querylog.segments_scanned
        | rs -> failf "expected 1 record, got %d" (List.length rs));
    test_case "a high threshold logs nothing" `Quick (fun () ->
        let ql = Obs.Querylog.create ~threshold_s:1e9 () in
        let ctx = Context.with_querylog (C.context ()) ql in
        ignore (Query.run ctx (parse C.query1));
        check int "nothing crossed the bar" 0 (Obs.Querylog.length ql));
    test_case "failed queries land with their error and class" `Quick (fun () ->
        let ql = Obs.Querylog.create ~threshold_s:0. () in
        let ctx = Context.with_querylog (C.context ()) ql in
        (match Query.run ctx (Htl.Ast.Not (parse "man_woman")) with
        | _ -> fail "general formula accepted"
        | exception Query.Error _ -> ());
        match Obs.Querylog.records ql with
        | [ r ] ->
            check string "unclassifiable" "unsupported" r.Obs.Querylog.cls;
            check bool "error recorded" true (Option.is_some r.Obs.Querylog.error)
        | rs -> failf "expected 1 record, got %d" (List.length rs));
  ]

(* --- Resource ---------------------------------------------------------------- *)

let resource_tests =
  let open Alcotest in
  [
    test_case "measure sees the thunk's allocation" `Quick (fun () ->
        (* 1000 3-word list cells; Gc.minor_words reads the allocation
           pointer, so the delta is exact even with no minor GC between
           the samples (the quick_stat trap resource.ml documents) *)
        let r, d =
          Obs.Resource.measure (fun () ->
              Sys.opaque_identity (List.init 1000 (fun i -> i + 1)))
        in
        check int "thunk result threads through" 1000 (List.length r);
        check bool "at least the list cells" true
          (Obs.Resource.allocated_words d >= 3000.);
        check bool "collection counts never negative" true
          (d.Obs.Resource.minor_collections >= 0
          && d.Obs.Resource.major_collections >= 0));
    test_case "zero is zero" `Quick (fun () ->
        check (float 0.) "no allocation" 0.
          (Obs.Resource.allocated_words Obs.Resource.zero));
    test_case "to_attrs exposes the gc.* keys" `Quick (fun () ->
        check (list string) "stable key set"
          [
            "gc.minor_words";
            "gc.major_words";
            "gc.promoted_words";
            "gc.minor_collections";
            "gc.major_collections";
          ]
          (List.map fst (Obs.Resource.to_attrs Obs.Resource.zero)));
    test_case "explain analyze reports a GC delta" `Quick (fun () ->
        let report =
          Query.explain ~analyze:true (C.context ()) (parse C.query1)
        in
        match report.Explain.resources with
        | Some d ->
            check bool "an analyzed run allocates" true
              (Obs.Resource.allocated_words d > 0.)
        | None -> fail "analyzed report carries no resources");
    test_case "static explain reports none" `Quick (fun () ->
        let report = Query.explain (C.context ()) (parse C.query1) in
        check bool "no resources without analyze" true
          (report.Explain.resources = None));
  ]

(* --- Traceid ---------------------------------------------------------------- *)

let traceid_tests =
  let open Alcotest in
  let hex32 = "0123456789abcdef0123456789abcdef" in
  [
    test_case "generate mints valid, distinct ids" `Quick (fun () ->
        let a = Obs.Traceid.generate () and b = Obs.Traceid.generate () in
        check bool "a valid" true (Obs.Traceid.is_valid a);
        check bool "b valid" true (Obs.Traceid.is_valid b);
        check bool "distinct" true (a <> b);
        check int "span ids are 16 hex" 16
          (String.length (Obs.Traceid.span_id ())));
    test_case "of_string canonicalizes and rejects" `Quick (fun () ->
        check (option string) "lowercase passes" (Some hex32)
          (Obs.Traceid.of_string hex32);
        check (option string) "uppercase folds" (Some hex32)
          (Obs.Traceid.of_string (String.uppercase_ascii hex32));
        check (option string) "whitespace trimmed" (Some hex32)
          (Obs.Traceid.of_string ("  " ^ hex32 ^ " "));
        check (option string) "nil rejected" None
          (Obs.Traceid.of_string (String.make 32 '0'));
        check (option string) "short rejected" None
          (Obs.Traceid.of_string (String.sub hex32 0 31));
        check (option string) "non-hex rejected" None
          (Obs.Traceid.of_string (String.make 32 'g')));
    test_case "of_traceparent extracts the trace id" `Quick (fun () ->
        let tp = Printf.sprintf "00-%s-00f067aa0ba902b7-01" hex32 in
        check (option string) "well-formed" (Some hex32)
          (Obs.Traceid.of_traceparent tp);
        check (option string) "forbidden version ff" None
          (Obs.Traceid.of_traceparent
             (Printf.sprintf "ff-%s-00f067aa0ba902b7-01" hex32));
        check (option string) "nil trace id" None
          (Obs.Traceid.of_traceparent
             (Printf.sprintf "00-%s-00f067aa0ba902b7-01" (String.make 32 '0')));
        check (option string) "nil parent id" None
          (Obs.Traceid.of_traceparent
             (Printf.sprintf "00-%s-0000000000000000-01" hex32));
        check (option string) "garbage" None
          (Obs.Traceid.of_traceparent "not-a-traceparent"));
    test_case "to_traceparent round-trips through of_traceparent" `Quick
      (fun () ->
        let id = Obs.Traceid.generate () in
        check (option string) "round trip" (Some id)
          (Obs.Traceid.of_traceparent (Obs.Traceid.to_traceparent id));
        let tp = Obs.Traceid.to_traceparent ~parent:"00f067aa0ba902b7" id in
        check string "explicit parent embedded"
          (Printf.sprintf "00-%s-00f067aa0ba902b7-01" id)
          tp);
  ]

(* --- Stats ------------------------------------------------------------------- *)

(* nearest-rank convention matching bench/main.ml's [percentile] *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. p)))

let arb_latencies =
  let open QCheck in
  let gen =
    Gen.(list_size (int_range 1 150) (map (fun x -> x /. 1000.) (float_range 0. 100.)))
  in
  make
    ~print:(fun l -> String.concat ";" (List.map (Printf.sprintf "%.6f") l))
    gen

let stats_tests =
  let open Alcotest in
  let record ?(fingerprint = 1) ?(backend = "direct") ?(error = false) st
      latency =
    Obs.Stats.record_query st ~fingerprint
      ~formula:(fun () -> "q")
      ~backend ~latency_s:latency ~error
  in
  [
    Helpers.qtest "EWMA matches the scalar fold" (fun samples ->
        let alpha = 0.2 in
        let st = Obs.Stats.create ~alpha () in
        List.iter (record st) samples;
        let oracle =
          List.fold_left
            (fun acc x ->
              match acc with
              | None -> Some x
              | Some prev -> Some ((alpha *. x) +. ((1. -. alpha) *. prev)))
            None samples
        in
        match (Obs.Stats.ewma_latency_s st ~fingerprint:1, oracle) with
        | Some got, Some want -> Float.abs (got -. want) <= 1e-9
        | _ -> false)
      arb_latencies;
    Helpers.qtest "window quantiles match nearest-rank over the tail"
      (fun samples ->
        let window = 16 in
        let st = Obs.Stats.create ~window () in
        List.iter (record st) samples;
        let tail =
          let n = List.length samples in
          if n <= window then samples
          else List.filteri (fun i _ -> i >= n - window) samples
        in
        let sorted = Array.of_list tail in
        Array.sort compare sorted;
        match Obs.Stats.queries st with
        | [ row ] ->
            row.Obs.Stats.window_n = Array.length sorted
            && Float.abs (row.Obs.Stats.p50_s -. nearest_rank sorted 0.50)
               <= 1e-9
            && Float.abs (row.Obs.Stats.p95_s -. nearest_rank sorted 0.95)
               <= 1e-9
            && Float.abs (row.Obs.Stats.p99_s -. nearest_rank sorted 0.99)
               <= 1e-9
        | _ -> false)
      arb_latencies;
    test_case "rows count requests, errors and backends" `Quick (fun () ->
        let st = Obs.Stats.create () in
        record st 0.01;
        record st ~error:true 0.03;
        record st ~fingerprint:2 ~backend:"sql" 0.02;
        record st 0.01;
        (match Obs.Stats.queries st with
        | [ a; b ] ->
            check int "most-requested first" 1 a.Obs.Stats.fingerprint;
            check int "count" 3 a.Obs.Stats.count;
            check int "errors" 1 a.Obs.Stats.errors;
            check int "sibling fingerprint" 2 b.Obs.Stats.fingerprint
        | rows -> failf "expected 2 query rows, got %d" (List.length rows));
        (match Obs.Stats.backends st with
        | [ d; s ] ->
            check string "sorted by name" "direct" d.Obs.Stats.backend;
            check int "direct requests" 3 d.Obs.Stats.requests;
            check int "direct errors" 1 d.Obs.Stats.backend_errors;
            check string "sql row" "sql" s.Obs.Stats.backend
        | rows -> failf "expected 2 backend rows, got %d" (List.length rows));
        check (option (float 1e-9)) "error_rate" (Some (1. /. 3.))
          (Obs.Stats.error_rate st ~backend:"direct");
        Obs.Stats.clear st;
        check int "clear empties" 0 (List.length (Obs.Stats.queries st)));
    test_case "the formula thunk is forced once per fingerprint" `Quick
      (fun () ->
        let st = Obs.Stats.create () in
        let forced = ref 0 in
        let formula () =
          incr forced;
          "expensive" in
        Obs.Stats.record_query st ~fingerprint:7 ~formula ~backend:"direct"
          ~latency_s:0.01 ~error:false;
        Obs.Stats.record_query st ~fingerprint:7 ~formula ~backend:"direct"
          ~latency_s:0.02 ~error:false;
        check int "forced once" 1 !forced;
        match Obs.Stats.queries st with
        | [ row ] -> check string "rendered" "expensive" row.Obs.Stats.formula
        | _ -> fail "expected 1 row");
    test_case "atom selectivity folds an EWMA of candidates/segments" `Quick
      (fun () ->
        let alpha = 0.5 in
        let st = Obs.Stats.create ~alpha () in
        Obs.Stats.record_atom st ~atom:"man" ~level:3 ~candidates:10
          ~segments:100;
        Obs.Stats.record_atom st ~atom:"man" ~level:3 ~candidates:30
          ~segments:100;
        (* seeds at 0.1, then 0.5·0.3 + 0.5·0.1 = 0.2 *)
        check (option (float 1e-9)) "ewma" (Some 0.2)
          (Obs.Stats.selectivity st ~level:3 ~atom:"man");
        check (option (float 1e-9)) "levels are distinct keys" None
          (Obs.Stats.selectivity st ~level:2 ~atom:"man");
        Obs.Stats.record_atom st ~atom:"man" ~level:3 ~candidates:1 ~segments:0;
        (match Obs.Stats.atoms st with
        | [ row ] ->
            check int "zero-segment eval is a no-op" 2 row.Obs.Stats.evals;
            check int "candidates accumulate" 40
              row.Obs.Stats.candidates_total;
            check int "segments accumulate" 200 row.Obs.Stats.segments_total
        | rows -> failf "expected 1 atom row, got %d" (List.length rows)));
    test_case "to_json carries all three families" `Quick (fun () ->
        let st = Obs.Stats.create () in
        record st 0.01;
        Obs.Stats.record_atom st ~atom:"man" ~level:1 ~candidates:1
          ~segments:2;
        let doc = Obs.Stats.to_json st in
        let arr name =
          match Obs.Json.member name doc with
          | Some (Obs.Json.Array items) -> List.length items
          | _ -> -1
        in
        check int "queries" 1 (arr "queries");
        check int "atoms" 1 (arr "atoms");
        check int "backends" 1 (arr "backends");
        check bool "alpha present" true
          (Obs.Json.member "alpha" doc <> None));
    test_case "invalid configuration is rejected" `Quick (fun () ->
        check_raises "alpha 0"
          (Invalid_argument "Obs.Stats.create: alpha 0 outside (0, 1]")
          (fun () -> ignore (Obs.Stats.create ~alpha:0. ()));
        check_raises "window 0"
          (Invalid_argument "Obs.Stats.create: window 0 < 1") (fun () ->
            ignore (Obs.Stats.create ~window:0 ())));
  ]

(* --- Tracestore -------------------------------------------------------------- *)

let ts_entry ?(trace_id = "cafe") ?(status = 200) ?spans () =
  let spans =
    match spans with
    | Some s -> s
    | None ->
        let tr = Obs.Trace.create () in
        Obs.Trace.with_span tr "server.request" (fun () -> ());
        Obs.Trace.spans tr
  in
  {
    Obs.Tracestore.trace_id;
    time_s = 0.;
    latency_s = 0.002;
    meth = "POST";
    target = "/query";
    status;
    spans;
  }

let tracestore_tests =
  let open Alcotest in
  [
    test_case "the ring overwrites oldest first" `Quick (fun () ->
        let ts = Obs.Tracestore.create ~capacity:2 () in
        List.iter
          (fun id -> Obs.Tracestore.add ts (ts_entry ~trace_id:id ()))
          [ "aa"; "bb"; "cc" ];
        check (list string) "oldest dropped, order kept" [ "bb"; "cc" ]
          (List.map
             (fun e -> e.Obs.Tracestore.trace_id)
             (Obs.Tracestore.entries ts));
        check int "length capped" 2 (Obs.Tracestore.length ts);
        check int "added keeps counting" 3 (Obs.Tracestore.added ts);
        Obs.Tracestore.clear ts;
        check int "clear empties" 0 (Obs.Tracestore.length ts));
    test_case "find answers the newest entry for an id" `Quick (fun () ->
        let ts = Obs.Tracestore.create () in
        Obs.Tracestore.add ts (ts_entry ~trace_id:"dd" ~status:200 ());
        Obs.Tracestore.add ts (ts_entry ~trace_id:"ee" ());
        Obs.Tracestore.add ts (ts_entry ~trace_id:"dd" ~status:500 ());
        (match Obs.Tracestore.find ts "dd" with
        | Some e -> check int "newest wins" 500 e.Obs.Tracestore.status
        | None -> fail "dd not found");
        check bool "absent id" true (Obs.Tracestore.find ts "zz" = None));
    test_case "summary_json reports everything but the spans" `Quick
      (fun () ->
        let doc = Obs.Tracestore.summary_json (ts_entry ~trace_id:"ff" ()) in
        check (option string) "trace_id" (Some "ff")
          (match Obs.Json.member "trace_id" doc with
          | Some (Obs.Json.String s) -> Some s
          | _ -> None);
        check bool "span count, not spans" true
          (Obs.Json.member "spans" doc = Some (Obs.Json.Int 1)));
    test_case "capacity below 1 is rejected" `Quick (fun () ->
        check_raises "invalid capacity"
          (Invalid_argument "Obs.Tracestore.create: capacity 0 < 1")
          (fun () -> ignore (Obs.Tracestore.create ~capacity:0 ())));
  ]

(* --- trace ids on tracers and exports ---------------------------------------- *)

let trace_id_tests =
  let open Alcotest in
  let id = "0123456789abcdef0123456789abcdef" in
  [
    test_case "a tracer carries its id into pp and summaries" `Quick
      (fun () ->
        let tr = Obs.Trace.create ~trace_id:id () in
        check (option string) "trace_id accessor" (Some id)
          (Obs.Trace.trace_id tr);
        Obs.Trace.with_span tr "work" (fun () -> ());
        let tree = Format.asprintf "%a" Obs.Trace.pp_tree tr in
        let summary = Format.asprintf "%a" Obs.Trace.pp_summary tr in
        check bool "pp_tree leads with the id" true
          (Helpers.contains tree ("trace " ^ id));
        check bool "pp_summary leads with the id" true
          (Helpers.contains summary ("trace " ^ id));
        let anon = Obs.Trace.create () in
        Obs.Trace.with_span anon "work" (fun () -> ());
        check bool "no id, no trace line" false
          (Helpers.contains
             (Format.asprintf "%a" Obs.Trace.pp_tree anon)
             "trace "));
    test_case "exports stamp the id on every span" `Quick (fun () ->
        let tr = Obs.Trace.create ~trace_id:id () in
        Obs.Trace.with_span tr "a" (fun () ->
            Obs.Trace.with_span tr "b" (fun () -> ()));
        let lines =
          String.split_on_char '\n' (String.trim (Obs.Export.spans_jsonl tr))
        in
        check int "one line per span" 2 (List.length lines);
        List.iter
          (fun line ->
            check bool "line carries trace_id" true
              (Helpers.contains line id))
          lines;
        let chrome = Obs.Export.chrome_trace tr in
        (match Obs.Json.of_string chrome with
        | Ok doc ->
            check bool "top-level trace_id" true
              (Obs.Json.member "trace_id" doc
              = Some (Obs.Json.String id))
        | Error e -> failf "chrome trace is not JSON: %s" e);
        check bool "set_trace_id retrofits" true
          (let tr2 = Obs.Trace.create () in
           Obs.Trace.set_trace_id tr2 id;
           Obs.Trace.trace_id tr2 = Some id));
  ]

let suites =
  [
    ("obs.json", json_tests);
    ("obs.trace", trace_tests);
    ("obs.traceid", traceid_tests);
    ("obs.metrics", metrics_tests);
    ("obs.export", export_tests);
    ("obs.querylog", querylog_tests);
    ("obs.stats", stats_tests);
    ("obs.tracestore", tracestore_tests);
    ("obs.trace_id", trace_id_tests);
    ("obs.resource", resource_tests);
    ("obs.topk", topk_tests);
    ("obs.explain", explain_tests);
  ]
