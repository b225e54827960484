(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§4), plus ablations for the design choices called
   out in DESIGN.md.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table5 fig2  # selected sections
     dune exec bench/main.exe -- --domains 2 parallel --json out.json
                          # parallel section at one pool size, JSON there
     dune exec bench/main.exe -- --check --baseline BENCH_cache.json
                          # regression gate: exit 1 if timings regressed

   --domains N runs the parallel section at pool size N only (default:
   1, 2, 4, 8); --json FILE redirects the parallel, index and plan
   sections' JSON report (default BENCH_<section>.json).  The cache and
   trace sections always write BENCH_cache.json / BENCH_trace.json.

   --check --baseline FILE re-runs the section FILE came from, writes
   the fresh report to BENCH_<kind>.fresh.json, and exits 1 when a
   timed field's median regressed beyond --tolerance (a relative
   slack, default 0.5 = 50%), or when nothing could be compared.

   Every timing comes from one timer, [measure] below.  The served path
   (HTTP, sharding, ingestion) is measured end to end by bench/e2e.

   Absolute times are modern-hardware in-memory numbers; the paper ran on
   1997 SUN workstations with Sybase, so only the *shape* (who wins, how
   things scale) is comparable. *)

module Sim_list = Simlist.Sim_list
module Interval = Simlist.Interval
module C = Workload.Casablanca

let parse = Htl.Parser.formula_of_string

(* ---- the one timer ------------------------------------------------------------

   Every timed row goes through [measure].  It reads Bechamel's
   monotonic clock, repeats the operation until one sample spans at
   least 1 ms (so no reading sits near the clock's resolution), takes
   [samples] such samples and reduces the per-operation times with the
   order statistics the end-to-end gate uses (median and quartiles).
   Words allocated per operation come from [Obs.Resource] over the same
   batches: minor + major - promoted, since packed lists of any size go
   straight to the major heap.  Under OCaml 5 they are the calling
   domain's share only.

   [fresh ()] builds the state one operation runs on.  It is called once
   per operation, outside the timed region: a cold row hands out a new
   context each time, a warm row the same one. *)

type timing = { median_s : float; q1_s : float; q3_s : float; words : float }

let samples = 7
let min_sample_ns = 1_000_000.

(* A block over 256 words goes straight to the major heap, and the GC
   counts it in [major_words] only at a major slice: a sample taken on an
   unsettled heap misses such words or holds earlier ones.  Each sample
   settles the heap first, outside the timed window. *)
let settled_sample () =
  Gc.full_major ();
  Gc.minor ();
  Obs.Resource.sample ()

let measure ?(samples = samples) ~fresh op =
  let batch n =
    let states = Array.init n (fun _ -> fresh ()) in
    let before = settled_sample () in
    let t0 = Monotonic_clock.now () in
    Array.iter (fun s -> ignore (Sys.opaque_identity (op s))) states;
    let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    let d = Obs.Resource.delta ~before ~after:(settled_sample ()) in
    (ns, Obs.Resource.allocated_words d)
  in
  (* grow the batch until it spans 1 ms; that batch is the first sample *)
  let rec calibrate n =
    let ((ns, _) as first) = batch n in
    if ns >= min_sample_ns then (n, first)
    else
      let scaled =
        Float.to_int (Float.of_int n *. 1.25 *. min_sample_ns /. ns)
      in
      calibrate
        (if ns <= 0. then n * 10 else max (n + 1) (min (n * 10) scaled))
  in
  let n, first = calibrate 1 in
  let runs = first :: List.init (samples - 1) (fun _ -> batch n) in
  let per_op = Float.of_int n in
  let times = List.map (fun (ns, _) -> ns *. 1e-9 /. per_op) runs in
  let q1_s, _, q3_s = E2e_stats.Stats.quartiles times in
  {
    median_s = E2e_stats.Stats.median times;
    q1_s;
    q3_s;
    words =
      E2e_stats.Stats.median (List.map (fun (_, w) -> w /. per_op) runs);
  }

(* the same operation over one state: a warm row *)
let measure_on ?samples state op = measure ?samples ~fresh:(fun () -> state) op

(* the median seconds of a stateless operation *)
let median_s op = (measure_on () op).median_s

(* All BENCH_*.json reports render through the shared Obs.Json tree —
   one escaper, one float form — and the regression gate below reads
   them back through the same module's parser.  A timed field is a
   [timing_json] object; the gate compares its median. *)
module Json = Obs.Json

let write_json path doc =
  Json.to_file path doc;
  Printf.printf "wrote %s\n%!" path

let timing_json t =
  Json.Obj
    [
      ("median_s", Json.Float t.median_s);
      ("q1_s", Json.Float t.q1_s);
      ("q3_s", Json.Float t.q3_s);
      ("words_per_op", Json.Float t.words);
    ]

let timing_note =
  Printf.sprintf
    "a timed field is the median and quartiles over %d samples of one \
     operation's seconds (each sample repeats it for >= 1 ms on the \
     monotonic clock) and its words allocated per operation"
    samples

let header title = Printf.printf "\n=== %s ===\n%!" title

let print_list name list =
  Printf.printf "%s\n%s\n%!" name
    (Format.asprintf "%a" (Engine.Topk.pp_table ?header:None) list)

(* ---- Tables 1 and 2: the atomic predicate inputs ----------------------- *)

let regenerated store f =
  let table = Picture.Retrieval.eval store ~level:2 f in
  let t = median_s (fun () -> Picture.Retrieval.eval store ~level:2 f) in
  print_list
    (Printf.sprintf
       "regenerated by the picture system over the reconstruction (%.3f ms; \
        our scorer's values):"
       (t *. 1e3))
    (Simlist.Sim_table.project_exists table)

let table1 () =
  header "Table 1 - Moving-Train (atomic similarity table, input)";
  print_list "as published (shipped input):" C.moving_train;
  (* regenerate through the picture retrieval system over the meta-data
     reconstruction *)
  let store = C.store () in
  let f =
    parse
      "exists z . (present(z) and type(z) = \"train\" and moving(z) = true)"
  in
  regenerated store f

let table2 () =
  header "Table 2 - Man-Woman (atomic similarity table, input)";
  print_list "as published (shipped input):" C.man_woman;
  let store = C.store () in
  let f =
    parse
      "exists x, y . present(x) and type(x) = \"man\" and present(y) and \
       type(y) = \"woman\""
  in
  regenerated store f

(* ---- Table 3: the intermediate eventually-list -------------------------- *)

(* Timing sections evaluate without the subformula cache: repeated runs
   must measure the algorithms, not cache hits.  The cache itself is
   measured in the dedicated cold/warm section below. *)
let cold ctx = Engine.Context.without_cache ctx

let table3 () =
  header "Table 3 - eventually Moving-Train (computed)";
  let ctx = cold (C.context ()) in
  let run () = Engine.Query.run_string ctx "eventually moving_train" in
  let r = run () and t = median_s run in
  print_list (Printf.sprintf "computed in %.3f ms:" (t *. 1e3)) r;
  Printf.printf "matches the paper: %b\n%!" (Sim_list.equal r C.expected_table3)

(* ---- Table 4: Query 1, both approaches ----------------------------------- *)

let table4 () =
  header "Table 4 - Query 1 = Man-Woman AND eventually Moving-Train";
  let ctx = cold (C.context ()) in
  let run ?backend () = Engine.Query.run_string ?backend ctx C.query1 in
  let direct = run () and t_direct = median_s run in
  print_list
    (Printf.sprintf "direct approach (%.3f ms), ranked:" (t_direct *. 1e3))
    direct;
  let backend = Engine.Query.Sql_backend_choice in
  let sql = run ~backend () and t_sql = median_s (run ~backend) in
  Printf.printf "SQL-based approach (%.3f ms) identical to direct: %b\n%!"
    (t_sql *. 1e3)
    (Sim_list.equal direct sql);
  let expected =
    List.for_all2
      (fun (iv, v) (iv', v') ->
        Interval.equal iv iv' && Float.abs (v -. v') < 1e-9)
      (Engine.Topk.ranked_intervals direct)
      C.expected_table4
  in
  Printf.printf "ranked output matches the paper's Table 4: %b\n%!" expected

(* ---- Figure 2: the until-merge worked example ----------------------------- *)

let fig2_g =
  Sim_list.of_entries ~max:20.
    [ (Interval.make 25 100, 20.); (Interval.make 200 250, 20.) ]

let fig2_h =
  Sim_list.of_entries ~max:20.
    [
      (Interval.make 10 50, 10.);
      (Interval.make 55 60, 15.);
      (Interval.make 90 110, 12.);
      (Interval.make 125 175, 10.);
    ]

let fig2 () =
  header "Figure 2 - the until algorithm's worked example";
  print_list "L1 (g, entries above the threshold):" fig2_g;
  print_list "L2 (h):" fig2_h;
  let run () =
    Sim_list.until_merge ~extents:(Simlist.Extent.single 300) fig2_g fig2_h
  in
  let r = run () and t = median_s run in
  print_list (Printf.sprintf "output (%.3f us):" (t *. 1e6)) r;
  let expected =
    Sim_list.of_entries ~max:20.
      [
        (Interval.make 10 24, 10.);
        (Interval.make 25 60, 15.);
        (Interval.make 61 110, 12.);
        (Interval.make 125 175, 10.);
      ]
  in
  Printf.printf "matches the paper's figure: %b\n%!" (Sim_list.equal r expected)

(* ---- Tables 5 and 6: direct vs SQL on random data -------------------------- *)

let sizes = [ 10_000; 50_000; 100_000 ]

let perf_row ~seed ~n query =
  let ctx =
    cold (Workload.Synthetic.context_with_atoms ~seed ~n [ "p1"; "p2"; "p3" ])
  in
  let f = parse query in
  let direct () = Engine.Query.run ctx f in
  let backend = Engine.Sql_backend.create ctx in
  let sql () = Engine.Sql_backend.run backend ctx f in
  if not (Sim_list.equal (direct ()) (sql ())) then
    failwith ("backends disagree on " ^ query);
  (median_s direct, median_s sql)

let perf_table ?(sizes = sizes) ~title ~query ~paper () =
  header title;
  Printf.printf "query: %s (until-threshold 0.5, ~10%% selectivity)\n" query;
  Printf.printf "%-9s %13s %13s %8s %24s\n" "Size" "Direct (s)" "SQL (s)"
    "Ratio" "Paper direct/SQL (s)";
  List.iter
    (fun n ->
      let t_direct, t_sql = perf_row ~seed:(1000 + n) ~n query in
      let paper_str =
        match List.assoc_opt n paper with
        | Some (d, s) -> Printf.sprintf "%9.2f / %9.2f" d s
        | None -> "       (illegible)"
      in
      Printf.printf "%-9d %13.6f %13.6f %7.0fx %24s\n%!" n t_direct t_sql
        (t_sql /. Float.max 1e-9 t_direct)
        paper_str)
    sizes

let table5 () =
  perf_table ~title:"Table 5 - P1 AND P2, direct vs SQL-based"
    ~query:"p1 and p2"
    ~paper:[] (* the scan of Table 5's numbers is illegible *)
    ()

let table6 () =
  perf_table ~title:"Table 6 - P1 UNTIL P2, direct vs SQL-based"
    ~query:"p1 until p2"
    ~paper:
      [
        (10_000, (1.46, 42.14));
        (50_000, (7.35, 99.72));
        (100_000, (14.97, 134.63));
      ]
    ()

(* ---- the "two other more complex formulas" of §4.2 -------------------------- *)

let complex () =
  (* "eventually" makes the per-id intermediate tables dense, and the
     corridor join quadratic: exactly the paper's observation that with
     the SQL translation "the intermediate relations may become quite
     large".  Smaller sizes keep the SQL side tractable. *)
  List.iter
    (fun (name, q) ->
      perf_table
        ~sizes:[ 1_000; 2_000; 5_000 ]
        ~title:
          (Printf.sprintf
             "Complex formula (mentioned in 4.2, numbers not published) - %s"
             name)
        ~query:q ~paper:[] ())
    [
      ("(P1 AND eventually P2) UNTIL P3", "(p1 and eventually p2) until p3");
      ("P1 AND next (P2 UNTIL P3)", "p1 and next (p2 until p3)");
    ]

(* ---- ablations --------------------------------------------------------------- *)

let shuffle rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let ablation_sort () =
  header "Ablation - sorting the input lists (the paper reports merge sort)";
  let rng = Workload.Rng.make 77 in
  let list =
    Workload.Synthetic.similarity_list rng ~n:2_000_000 ~selectivity:0.1 ()
  in
  let entries = Array.of_list (Sim_list.entries list) in
  let shuffled = Array.to_list (shuffle rng entries) in
  let max = Sim_list.max_sim list in
  Printf.printf "intervals: %d\n" (Array.length entries);
  let t_sorted =
    median_s (fun () -> Sim_list.of_entries ~max (Array.to_list entries))
  in
  Printf.printf "build from already-sorted input:   %.6f s\n" t_sorted;
  let t_shuffled = median_s (fun () -> Sim_list.of_entries ~max shuffled) in
  Printf.printf "build from shuffled input (merge sort): %.6f s\n" t_shuffled;
  (* an O(n^2) insertion sort, for scale, on a small prefix *)
  let small = List.filteri (fun i _ -> i < 4000) shuffled in
  let insertion_sort l =
    let rec insert x = function
      | [] -> [ x ]
      | y :: tl ->
          if Interval.compare (fst x) (fst y) <= 0 then x :: y :: tl
          else y :: insert x tl
    in
    List.fold_left (fun acc x -> insert x acc) [] l
  in
  let t_insertion =
    median_s (fun () -> Sim_list.of_entries ~max (insertion_sort small))
  in
  Printf.printf
    "insertion sort on a %d-interval prefix: %.6f s (quadratic - why the \
     paper settled on merge sort)\n%!"
    (List.length small) t_insertion

let ablation_threshold () =
  header "Ablation - until-threshold sensitivity";
  let rng = Workload.Rng.make 99 in
  let n = 1_000_000 in
  let g = Workload.Synthetic.similarity_list rng ~n ~selectivity:0.3 ()
  and h = Workload.Synthetic.similarity_list rng ~n ~selectivity:0.1 () in
  let extents = Simlist.Extent.single n in
  Printf.printf "%-10s %12s %12s %12s\n" "Threshold" "Entries" "Covered"
    "Time (s)";
  List.iter
    (fun threshold ->
      let run () = Sim_list.until_merge ~threshold ~extents g h in
      let r = run () and t = median_s run in
      Printf.printf "%-10.2f %12d %12d %12.6f\n%!" threshold
        (Sim_list.length r) (Sim_list.covered r) t)
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let ablation_merge () =
  header
    "Ablation - m-way merge: divide-and-conquer (O(l log m), 3.2) vs \
     iterated pairwise (O(l m))";
  let rng = Workload.Rng.make 5 in
  Printf.printf "%-6s %18s %18s\n" "m" "D&C (s)" "Pairwise (s)";
  List.iter
    (fun m ->
      let lists =
        List.init m (fun _ ->
            Workload.Synthetic.similarity_list rng ~n:200_000
              ~selectivity:0.05 ~max:10. ())
      in
      let t_dc = median_s (fun () -> Sim_list.merge_max lists) in
      let t_pw = median_s (fun () -> Sim_list.merge_max_pairwise lists) in
      Printf.printf "%-6d %18.6f %18.6f\n%!" m t_dc t_pw)
    [ 2; 4; 8; 16; 32; 64 ]

(* The two-list kernels the paper calls linear (§3.1): conjunction and
   the max-merge on two lists of n entries each, at three sizes a decade
   apart.  Linear kernels grow ~10x per decade; allocation is counted in
   minor words per input entry (both lists). *)
let ablation_linear () =
  header
    "Ablation - linearity of the two-list kernels (conjunction + merge_max)";
  Printf.printf "%-10s %12s %14s %10s\n" "Entries" "Time (s)" "Words/entry"
    "Growth";
  ignore
    (List.fold_left
       (fun prev entries ->
         let rng = Workload.Rng.make entries in
         (* selectivity 0.1 with runs of 5 ids: one entry per ~50 ids *)
         let mk () =
           Workload.Synthetic.similarity_list rng ~n:(50 * entries) ()
         in
         let a = mk () and b = mk () in
         let kernels () =
           ignore (Sim_list.conjunction a b);
           ignore (Sim_list.merge_max [ a; b ])
         in
         let { median_s = t; words; _ } = measure_on () kernels in
         let n = Sim_list.length a + Sim_list.length b in
         Printf.printf "%-10d %12.6f %14.1f %10s\n%!" (n / 2) t
           (words /. float_of_int n)
           (match prev with
           | Some p -> Printf.sprintf "%.1fx" (t /. Float.max 1e-9 p)
           | None -> "");
         Some t)
       None
       [ 10_000; 100_000; 1_000_000 ])

let ablation_semantics () =
  header
    "Ablation - alternative similarity functions (the paper's 5 'other \
     similarity functions' future work)";
  let modes =
    [
      ("weighted-sum (paper)", Sim_list.Weighted_sum);
      ("min-fraction", Sim_list.Min_fraction);
      ("product-fraction", Sim_list.Product_fraction);
    ]
  in
  List.iter
    (fun (name, mode) ->
      let ctx =
        Engine.Context.with_fresh_cache
          { (C.context ()) with Engine.Context.conj_mode = mode }
      in
      let r = Engine.Query.run_string ctx C.query1 in
      Printf.printf "%-22s top: %s\n%!" name
        (String.concat "  "
           (List.map
              (fun (iv, v) ->
                Printf.sprintf "[%d-%d]=%.2f" (Interval.lo iv)
                  (Interval.hi iv) v)
              (let ranked = Engine.Topk.ranked_intervals r in
               List.filteri (fun i _ -> i < 3) ranked))))
    modes;
  Printf.printf
    "(min/product zero out segments where a conjunct is entirely absent; \
     the weighted sum keeps them partially matched)\n%!"

(* ---- cold vs warm: the subformula result cache --------------------------------- *)

(* The four Casablanca queries the cache section tracks (Q1 is the
   paper's Query 1; Q2-Q4 are refinements over the same two atomic
   tables, the interactive-refinement shape the cache is built for). *)
let casablanca_queries =
  [
    ("Q1", C.query1);
    ("Q2", "eventually moving_train");
    ("Q3", "man_woman until moving_train");
    ("Q4", "man_woman and next (man_woman until moving_train)");
  ]

let synthetic_queries =
  [
    ("and", "p1 and p2");
    ("until", "p1 until p2");
    ("complex", "(p1 and eventually p2) until p3");
  ]

type cache_row = {
  workload : string;
  name : string;
  query : string;
  cold : timing;
  warm : timing;
  hits : int;
  misses : int;
  evictions : int;
}

(* cold: first evaluation through a fresh cache (a new empty cache per
   operation); warm: re-evaluation through the populated cache.  The
   counters are those of one cold and one warm evaluation. *)
let cache_row ~workload base (name, query) =
  let fresh_ctx () = Engine.Context.with_fresh_cache base in
  let f = parse query in
  let run ctx = Engine.Query.run ctx f in
  let ctx = fresh_ctx () in
  ignore (run ctx);
  let warm_result = run ctx in
  let hits, misses, evictions =
    match Engine.Query.cache_stats ctx with
    | Some s -> Engine.Cache.(s.hits, s.misses, s.evictions)
    | None -> (0, 0, 0)
  in
  if not (Sim_list.equal (run (Engine.Context.without_cache ctx)) warm_result)
  then failwith ("cache changes the result of " ^ query);
  let cold = measure ~fresh:fresh_ctx run and warm = measure_on ctx run in
  { workload; name; query; cold; warm; hits; misses; evictions }

let speedup ~slow ~fast = slow.median_s /. Float.max 1e-12 fast.median_s

let print_cache_rows rows =
  Printf.printf "%-10s %-8s %12s %12s %9s %6s %7s %6s\n" "Workload" "Query"
    "Cold (s)" "Warm (s)" "Speedup" "Hits" "Misses" "Evict";
  List.iter
    (fun r ->
      Printf.printf "%-10s %-8s %12.9f %12.9f %8.1fx %6d %7d %6d\n%!"
        r.workload r.name r.cold.median_s r.warm.median_s
        (speedup ~slow:r.cold ~fast:r.warm)
        r.hits r.misses r.evictions)
    rows

let cache_json rows =
  let row r =
    Json.Obj
      [
        ("workload", Json.String r.workload);
        ("name", Json.String r.name);
        ("query", Json.String r.query);
        ("cold", timing_json r.cold);
        ("warm", timing_json r.warm);
        ("speedup", Json.Float (speedup ~slow:r.cold ~fast:r.warm));
        ("hits", Json.Int r.hits);
        ("misses", Json.Int r.misses);
        ("evictions", Json.Int r.evictions);
      ]
  in
  Json.Obj
    [
      ("bench", Json.String "cache");
      ( "note",
        Json.String
          (timing_note
         ^ "; cold = first evaluation through a fresh subformula cache (a \
            new empty cache per operation); warm = re-evaluation over the \
            populated cache; counters of one cold and one warm evaluation"
          ) );
      ("rows", Json.Array (List.map row rows));
    ]

let synthetic_context ~n () =
  Workload.Synthetic.context_with_atoms ~seed:4242 ~n [ "p1"; "p2"; "p3" ]

let cache_rows () =
  List.map (cache_row ~workload:"casablanca" (C.context ())) casablanca_queries
  @ List.map
      (cache_row ~workload:"synthetic" (synthetic_context ~n:100_000 ()))
      synthetic_queries

let bench_cache () =
  header "Cache - cold vs warm query latency (subformula result cache)";
  let rows = cache_rows () in
  print_cache_rows rows;
  (* shared-subtree refinement: the second query reuses the first's
     until-table from the cache *)
  let base_ctx = synthetic_context ~n:100_000 () in
  let fresh () = Engine.Context.with_fresh_cache base_ctx in
  let run f ctx = Engine.Query.run ctx f in
  let base = run (parse "p1 until p2")
  and refined = run (parse "(p1 until p2) and eventually p3") in
  let t_base = measure ~fresh base in
  let t_refined =
    measure
      ~fresh:(fun () ->
        let ctx = fresh () in
        ignore (base ctx);
        ctx)
      refined
  in
  let t_refined_cold =
    measure_on (Engine.Context.without_cache (fresh ())) refined
  in
  Printf.printf
    "refinement: \"p1 until p2\" %.6f s, then \"(p1 until p2) and \
     eventually p3\" %.6f s warm vs %.6f s cold (shared until-subtree \
     served from cache)\n%!"
    t_base.median_s t_refined.median_s t_refined_cold.median_s;
  write_json "BENCH_cache.json" (cache_json rows)

(* ---- parallel: domain-pool scaling ---------------------------------------------- *)

let opt_domains = ref None
let opt_json = ref None

let domain_counts () =
  match !opt_domains with Some d -> [ d ] | None -> [ 1; 2; 4; 8 ]

type par_row = {
  p_workload : string;
  p_name : string;
  p_query : string;
  p_domains : int;
  p_time : timing;
  p_base : timing;  (* same query at the smallest pool size measured *)
}

let print_par_rows rows =
  Printf.printf "%-14s %-8s %8s %13s %9s\n" "Workload" "Query" "Domains"
    "Time (s)" "Speedup";
  List.iter
    (fun r ->
      Printf.printf "%-14s %-8s %8d %13.6f %8.2fx\n%!" r.p_workload r.p_name
        r.p_domains r.p_time.median_s
        (speedup ~slow:r.p_base ~fast:r.p_time))
    rows

(* a store big enough that the per-segment scoring scans dominate:
   ~100k leaf segments (the exact count is random; it is printed and
   recorded in the JSON) *)
let parallel_store =
  lazy
    (let rng = Workload.Rng.make 20260805 in
     Workload.Movies.random_store rng ~videos:420 ~levels:3 ~branching:30
       ~object_pool:8 ())

let parallel_synthetic_queries =
  [
    ("type", "exists z . (present(z) and type(z) = \"train\")");
    ( "until",
      "(exists x . (present(x) and type(x) = \"man\")) until (exists y . \
       (present(y) and type(y) = \"woman\"))" );
    ("event", "eventually (exists z . (present(z) and type(z) = \"gun\"))");
  ]

let parallel_batch_queries =
  parallel_synthetic_queries
  @ [
      ("speed", "exists z . (present(z) and speed(z) > 40)");
      ("woman", "exists z . (present(z) and type(z) = \"woman\")");
      ("horse", "next (exists z . (present(z) and type(z) = \"horse\"))");
    ]

(* measure [queries] cacheless at every pool size; [mk_ctx pool] builds
   the evaluation context around the given pool *)
let par_rows ~workload ~mk_ctx queries =
  let times =
    List.map
      (fun d ->
        Parallel.Pool.with_pool ~domains:d (fun pool ->
            ( d,
              List.map
                (fun (name, query) ->
                  let f = parse query in
                  (name, query, measure_on (mk_ctx pool) (fun ctx ->
                       Engine.Query.run ctx f)))
                queries )))
      (domain_counts ())
  in
  let base_of name =
    match times with
    | (_, rows) :: _ ->
        let _, _, t = List.find (fun (n, _, _) -> n = name) rows in
        t
    | [] -> assert false
  in
  List.concat_map
    (fun (d, rows) ->
      List.map
        (fun (name, query, t) ->
          {
            p_workload = workload;
            p_name = name;
            p_query = query;
            p_domains = d;
            p_time = t;
            p_base = base_of name;
          })
        rows)
    times

type batch_row = { b_domains : int; b_queries : int; b_time : timing }

let batch_qps r = float_of_int r.b_queries /. Float.max 1e-12 r.b_time.median_s

let print_batch_rows rows =
  Printf.printf "%-8s %8s %13s %12s\n" "Domains" "Queries" "Time (s)"
    "Queries/s";
  List.iter
    (fun r ->
      Printf.printf "%-8d %8d %13.6f %12.2f\n%!" r.b_domains r.b_queries
        r.b_time.median_s (batch_qps r))
    rows

let parallel_json ~cores ~segments rows batch_rows =
  let row r =
    Json.Obj
      [
        ("workload", Json.String r.p_workload);
        ("name", Json.String r.p_name);
        ("query", Json.String r.p_query);
        ("domains", Json.Int r.p_domains);
        ("time", timing_json r.p_time);
        ("speedup", Json.Float (speedup ~slow:r.p_base ~fast:r.p_time));
      ]
  in
  let batch r =
    Json.Obj
      [
        ("domains", Json.Int r.b_domains);
        ("queries", Json.Int r.b_queries);
        ("time", timing_json r.b_time);
        ("qps", Json.Float (batch_qps r));
      ]
  in
  Json.Obj
    [
      ("bench", Json.String "parallel");
      ("cores", Json.Int cores);
      ("synthetic_segments", Json.Int segments);
      ( "note",
        Json.String
          (timing_note
         ^ "; cacheless queries, the same context at each pool size; \
            speedup is relative to the smallest pool size measured; \
            scaling beyond the physical core count cannot materialise; \
            words count the calling domain's allocation only" ) );
      ("rows", Json.Array (List.map row rows));
      ("batch", Json.Array (List.map batch batch_rows));
    ]

let parallel_data () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf "physical cores (recommended_domain_count): %d\n" cores;
  (* Casablanca: tiny data, cutoff forced to 0 — this deliberately
     measures the pool's scheduling overhead, not a speedup *)
  Printf.printf
    "\nCasablanca Q1-Q4 (tiny tables, par_cutoff forced to 0: overhead \
     check)\n";
  let casa =
    par_rows ~workload:"casablanca"
      ~mk_ctx:(fun pool ->
        Engine.Context.with_pool ~par_cutoff:0 (cold (C.context ())) pool)
      casablanca_queries
  in
  print_par_rows casa;
  (* the scaling workload: segment scans over a ~100k-leaf store *)
  let store = Lazy.force parallel_store in
  let level = Video_model.Store.levels store in
  let segments = Video_model.Store.count_at store ~level in
  Printf.printf "\nSynthetic store scans (%d leaf segments, default cutoff)\n"
    segments;
  let synth =
    par_rows ~workload:"synthetic"
      ~mk_ctx:(fun pool ->
        Engine.Context.with_pool (cold (Engine.Context.of_store store)) pool)
      parallel_synthetic_queries
  in
  print_par_rows synth;
  (* batched multi-query throughput over the same store *)
  Printf.printf "\nBatched multi-query throughput (Query.run_batch)\n";
  let fs = List.map (fun (_, q) -> parse q) parallel_batch_queries in
  let batch_rows =
    List.map
      (fun d ->
        Parallel.Pool.with_pool ~domains:d (fun pool ->
            let ctx = cold (Engine.Context.of_store store) in
            List.iter
              (function
                | Ok _ -> ()
                | Error msg -> failwith ("batch query failed: " ^ msg))
              (Engine.Query.run_batch ~pool ctx fs);
            {
              b_domains = d;
              b_queries = List.length fs;
              b_time =
                measure_on ctx (fun ctx -> Engine.Query.run_batch ~pool ctx fs);
            }))
      (domain_counts ())
  in
  print_batch_rows batch_rows;
  (cores, segments, casa @ synth, batch_rows)

let bench_parallel () =
  header "Parallel - domain-pool scaling (cold queries)";
  let cores, segments, rows, batch_rows = parallel_data () in
  let path = Option.value ~default:"BENCH_parallel.json" !opt_json in
  write_json path (parallel_json ~cores ~segments rows batch_rows)

(* ---- trace: observability overhead + span summaries --------------------------- *)

type trace_row = {
  t_workload : string;
  t_name : string;
  t_query : string;
  t_off : timing;  (* nil tracer — the production path *)
  t_on : timing;  (* tracer + metrics attached *)
  t_spans : Obs.Trace.summary_row list;  (* from the last traced run *)
}

let trace_row ~workload ~mk_ctx (name, query) =
  let f = parse query in
  let off ctx = Engine.Query.run ctx f in
  let tracer = Obs.Trace.create () in
  let on ctx =
    Obs.Trace.clear tracer;
    Engine.Query.run ctx f
  in
  let off_ctx = cold (mk_ctx ()) in
  let on_ctx =
    Engine.Context.with_metrics
      (Engine.Context.with_tracer (cold (mk_ctx ())) tracer)
      (Obs.Metrics.create ())
  in
  if not (Sim_list.equal (off off_ctx) (on on_ctx)) then
    failwith ("tracing changes the result of " ^ query);
  {
    t_workload = workload;
    t_name = name;
    t_query = query;
    t_off = measure_on off_ctx off;
    t_on = measure_on on_ctx on;
    t_spans = Obs.Trace.summarize tracer;
  }

let overhead_pct r = (speedup ~slow:r.t_on ~fast:r.t_off -. 1.) *. 100.

let print_trace_rows rows =
  Printf.printf "%-11s %-8s %13s %13s %10s %6s\n" "Workload" "Query"
    "Off (s)" "Traced (s)" "Overhead" "Spans";
  List.iter
    (fun r ->
      Printf.printf "%-11s %-8s %13.9f %13.9f %9.1f%% %6d\n%!" r.t_workload
        r.t_name r.t_off.median_s r.t_on.median_s (overhead_pct r)
        (List.fold_left (fun acc (s : Obs.Trace.summary_row) ->
             acc + s.count)
           0 r.t_spans))
    rows

let trace_json rows =
  let span (s : Obs.Trace.summary_row) =
    Json.Obj
      ([
         ("name", Json.String s.sname);
         ("count", Json.Int s.count);
         ("total_s", Json.Float s.total_s);
       ]
      @
      if s.open_count > 0 then [ ("open_spans", Json.Int s.open_count) ]
      else [])
  in
  let row r =
    Json.Obj
      [
        ("workload", Json.String r.t_workload);
        ("name", Json.String r.t_name);
        ("query", Json.String r.t_query);
        ("off", timing_json r.t_off);
        ("traced", timing_json r.t_on);
        ("overhead_pct", Json.Float (overhead_pct r));
        ("spans", Json.Array (List.map span r.t_spans));
      ]
  in
  Json.Obj
    [
      ("bench", Json.String "trace");
      ( "note",
        Json.String
          (timing_note
         ^ "; off = nil tracer (the production path); traced = span \
            recorder + metrics registry attached; spans summarise the last \
            traced run (per-name count and total seconds)" ) );
      ("rows", Json.Array (List.map row rows));
    ]

let trace_rows () =
  List.map (trace_row ~workload:"casablanca" ~mk_ctx:C.context)
    casablanca_queries
  @ List.map
      (trace_row ~workload:"synthetic" ~mk_ctx:(synthetic_context ~n:50_000))
      synthetic_queries

let bench_trace () =
  header "Trace - observability overhead and span summaries";
  let rows = trace_rows () in
  print_trace_rows rows;
  (* one query's span tree, as a sample of what --trace shows *)
  let tracer = Obs.Trace.create () in
  let ctx = Engine.Context.with_tracer (cold (C.context ())) tracer in
  ignore (Engine.Query.run_string ctx C.query1);
  Printf.printf "\nQ1 span tree:\n%s\n%!"
    (Format.asprintf "%a" Obs.Trace.pp_tree tracer);
  write_json "BENCH_trace.json" (trace_json rows)

(* ---- index: persistent index registry + candidate pruning ---------------------- *)

(* a store where full segment scans are visibly more expensive than
   posting-array candidate scans: ~10k leaf segments of the Movies
   workload (seed distinct from the parallel section's store) *)
let index_store =
  lazy
    (let rng = Workload.Rng.make 19970407 in
     Workload.Movies.random_store rng ~videos:200 ~levels:2 ~branching:100
       ~object_pool:8 ())

let index_queries =
  [
    ("rel", "exists x, y . fires_at(x, y)");
    ("mood", "seg.mood = \"calm\"");
    ("speed", "exists z . (present(z) and speed(z) > 40)");
  ]

type index_row = {
  i_name : string;
  i_query : string;
  i_cold : timing;  (* fresh context: the registry must build the index *)
  i_warm : timing;  (* reused context: the registry serves it *)
  i_builds : int;  (* counters of one cold and one warm evaluation *)
  i_hits : int;
}

(* cold vs warm is about the index registry, not the subformula cache:
   every context here runs cacheless ([cold]), with a metrics registry
   attached so both sides pay the same observed-path overhead. *)
let registry_row store (name, query) =
  let f = parse query in
  let run ctx = Engine.Query.run ctx f in
  let observed m =
    Engine.Context.with_metrics (cold (Engine.Context.of_store store)) m
  in
  let fresh () = observed (Obs.Metrics.create ()) in
  let m = Obs.Metrics.create () in
  let ctx = observed m in
  ignore (run ctx) (* populate the registry *);
  ignore (run ctx);
  let builds = Obs.Metrics.counter_value m "picture.index.builds"
  and hits = Obs.Metrics.counter_value m "picture.index.registry_hits" in
  {
    i_name = name;
    i_query = query;
    i_cold = measure ~fresh run;
    i_warm = measure_on ctx run;
    i_builds = builds;
    i_hits = hits;
  }

let print_index_rows rows =
  Printf.printf "%-8s %12s %12s %9s %7s %6s\n" "Query" "Cold (s)" "Warm (s)"
    "Speedup" "Builds" "Hits";
  List.iter
    (fun r ->
      Printf.printf "%-8s %12.6f %12.6f %8.1fx %7d %6d\n%!" r.i_name
        r.i_cold.median_s r.i_warm.median_s
        (speedup ~slow:r.i_cold ~fast:r.i_warm)
        r.i_builds r.i_hits)
    rows

(* total of the per-level scan counters — the same
   [picture.segments_scanned.l<N>] series the slow-query log reads *)
let scanned_total m =
  List.fold_left
    (fun acc -> function
      | name, Obs.Metrics.Counter n
        when String.starts_with ~prefix:"picture.segments_scanned" name ->
          acc + n
      | _ -> acc)
    0 (Obs.Metrics.snapshot m)

let scan_measure store ~prune f =
  let config = { Picture.Retrieval.default_config with prune } in
  let m = Obs.Metrics.create () in
  let ctx =
    Engine.Context.with_metrics (cold (Engine.Context.of_store ~config store)) m
  in
  ignore (Engine.Query.run ctx f)
  (* warm the registry: measure scans, not index builds *);
  let before = scanned_total m in
  let r = Engine.Query.run ctx f in
  let scanned = scanned_total m - before in
  (r, measure_on ctx (fun ctx -> Engine.Query.run ctx f), scanned)

let same_table a b =
  let rows t =
    List.map
      (fun (r : Simlist.Sim_table.row) ->
        (r.objs, r.attrs, Sim_list.max_sim r.list, Sim_list.entries r.list))
      (Simlist.Sim_table.rows t)
  in
  Simlist.Sim_table.obj_cols a = Simlist.Sim_table.obj_cols b
  && Simlist.Sim_table.attr_cols a = Simlist.Sim_table.attr_cols b
  && Simlist.Sim_table.max_sim a = Simlist.Sim_table.max_sim b
  && rows a = rows b

(* [Retrieval.eval] (columnar scorer, sparse bound rows) against its
   oracle, every row built densely from [score_at]: the query, and its
   body with the quantifiers stripped, whose table has bound rows *)
let rec check_retrieval store f ~query =
  let level = Video_model.Store.levels store in
  if
    not
      (same_table
         (Picture.Retrieval.eval store ~level f)
         (Picture.Retrieval.eval_dense store ~level f))
  then failwith ("Retrieval.eval differs from its score_at oracle on " ^ query);
  match f with
  | Htl.Ast.Exists (_, body) -> check_retrieval store body ~query
  | _ -> ()

(* pruned candidate scans against full scans (prune = false) of one
   formula over one store; the two must answer the same *)
type scans = {
  pruned : timing;
  full : timing;
  pruned_scanned : int;
  full_scanned : int;
}

let scans store f ~what =
  let r_pruned, pruned, pruned_scanned = scan_measure store ~prune:true f in
  let r_full, full, full_scanned = scan_measure store ~prune:false f in
  if not (Sim_list.equal r_pruned r_full) then
    failwith ("index pruning changes the result of " ^ what);
  { pruned; full; pruned_scanned; full_scanned }

let print_scans key rows =
  Printf.printf "%-12s %12s %12s %9s %10s %10s\n" key "Pruned (s)" "Full (s)"
    "Speedup" "Scan/prn" "Scan/full";
  List.iter
    (fun (key, r) ->
      Printf.printf "%-12s %12.6f %12.6f %8.1fx %10d %10d\n%!" key
        r.pruned.median_s r.full.median_s
        (speedup ~slow:r.full ~fast:r.pruned)
        r.pruned_scanned r.full_scanned)
    rows

let scans_fields r =
  [
    ("pruned", timing_json r.pruned);
    ("full", timing_json r.full);
    ("pruned_scanned", Json.Int r.pruned_scanned);
    ("full_scanned", Json.Int r.full_scanned);
  ]

let prune_row store (name, query) =
  let f = parse query in
  let r = scans store f ~what:query in
  check_retrieval store f ~query;
  (name, query, r)

(* Open formulas, the units of conjunctive queries: [Query.run] wants a
   closed formula, so these time [Retrieval.eval] itself on a warm index
   (its columns built), pruned and full.  The freeze row scores every
   binding of x per own class of v at the segments holding x. *)
let open_queries =
  [ ("freeze", "present(x) and [w <- speed(x)] (w > 30 and speed(x) <= v)") ]

let open_row store (name, query) =
  let f = parse query in
  let level = Video_model.Store.levels store in
  let index = Picture.Index.build store ~level in
  let scan ~prune =
    let config = { Picture.Retrieval.default_config with prune } in
    let eval ?metrics () =
      Picture.Retrieval.eval ~config ?metrics ~index store ~level f
    in
    let m = Obs.Metrics.create () in
    let table = eval ~metrics:m () in
    (table, measure_on () eval, scanned_total m)
  in
  let t_pruned, pruned, pruned_scanned = scan ~prune:true in
  let t_full, full, full_scanned = scan ~prune:false in
  if not (same_table t_pruned t_full) then
    failwith ("index pruning changes the table of " ^ query);
  check_retrieval store f ~query;
  (name, query, { pruned; full; pruned_scanned; full_scanned })

(* selectivity sweep: a two-level store whose leaves all carry a "hot"
   attribute, "yes" on the requested fraction — the candidate set of
   [seg.hot = "yes"] is exactly the hot segments, so the pruned scan
   tracks selectivity while the full scan stays flat *)
let sweep_segments = 20_000

let sweep_store selectivity =
  let hot_per_mille = int_of_float (selectivity *. 1000.) in
  let metas =
    List.init sweep_segments (fun i ->
        let hot = i mod 1000 < hot_per_mille in
        Metadata.Seg_meta.make
          ~attrs:[ ("hot", Metadata.Value.Str (if hot then "yes" else "no")) ]
          ())
  in
  Video_model.Store.of_video (Video_model.Video.two_level ~title:"sweep" metas)

let sweep_row selectivity =
  ( selectivity,
    scans (sweep_store selectivity)
      (parse "seg.hot = \"yes\"")
      ~what:"the selectivity sweep" )

let index_json ~segments reg_rows prune_rows open_rows sweep_rows =
  let reg r =
    Json.Obj
      [
        ("name", Json.String r.i_name);
        ("query", Json.String r.i_query);
        ("cold", timing_json r.i_cold);
        ("warm", timing_json r.i_warm);
        ("speedup", Json.Float (speedup ~slow:r.i_cold ~fast:r.i_warm));
        ("builds", Json.Int r.i_builds);
        ("registry_hits", Json.Int r.i_hits);
      ]
  in
  let pr (name, query, r) =
    Json.Obj
      ([ ("name", Json.String name); ("query", Json.String query) ]
      @ scans_fields r)
  in
  let sw (selectivity, r) =
    Json.Obj (("selectivity", Json.Float selectivity) :: scans_fields r)
  in
  Json.Obj
    [
      ("bench", Json.String "index");
      ("segments", Json.Int segments);
      ("sweep_segments", Json.Int sweep_segments);
      ( "note",
        Json.String
          (timing_note
         ^ "; registry: cold = fresh context per operation (the registry \
            must build the level's index) vs warm = reused context \
            (registry hit), both cacheless, counters of one cold and one \
            warm evaluation; pruning: candidate scans vs full scans (prune \
            = false), scanned = picture.segments_scanned delta of one \
            evaluation; open: Retrieval.eval of an open formula on a warm \
            index, pruned vs full; selectivity: seg.hot = \"yes\" at \
            varying hot fractions over a dedicated store" ) );
      ("registry", Json.Array (List.map reg reg_rows));
      ("pruning", Json.Array (List.map pr prune_rows));
      ("open", Json.Array (List.map pr open_rows));
      ("selectivity", Json.Array (List.map sw sweep_rows));
    ]

let index_data () =
  let store = Lazy.force index_store in
  let level = Video_model.Store.levels store in
  let segments = Video_model.Store.count_at store ~level in
  Printf.printf "Movies store: %d leaf segments\n%!" segments;
  Printf.printf
    "\nIndex registry (cold = fresh registry, warm = registry hit)\n";
  let reg_rows = List.map (registry_row store) index_queries in
  print_index_rows reg_rows;
  Printf.printf "\nCandidate pruning vs full scans (same store)\n";
  let prune_rows = List.map (prune_row store) index_queries in
  print_scans "Query" (List.map (fun (name, _, r) -> (name, r)) prune_rows);
  Printf.printf "\nOpen formulas: Retrieval.eval on a warm index\n";
  let open_rows = List.map (open_row store) open_queries in
  print_scans "Query" (List.map (fun (name, _, r) -> (name, r)) open_rows);
  Printf.printf "\nSelectivity sweep (%d segments, seg.hot = \"yes\")\n"
    sweep_segments;
  let sweep_rows = List.map sweep_row [ 0.01; 0.1; 0.5; 1.0 ] in
  print_scans "Selectivity"
    (List.map (fun (sel, r) -> (Printf.sprintf "%g" sel, r)) sweep_rows);
  (segments, reg_rows, prune_rows, open_rows, sweep_rows)

let bench_index () =
  header "Index - persistent metadata indexes and candidate pruning";
  let segments, reg_rows, prune_rows, open_rows, sweep_rows = index_data () in
  let path = Option.value ~default:"BENCH_index.json" !opt_json in
  write_json path
    (index_json ~segments reg_rows prune_rows open_rows sweep_rows)

(* ---- cost-based planner: join order and backend choice --------------------------

   Skewed conjunctions whose written order is the worst fold order:
   type (2) chains of open conjuncts over one existential, where every
   conjunct binds about the same number of objects but their segment
   coverage is wildly skewed, and the chain is written dense-coverage
   first.  With the planner off the chain folds in written order; the
   planner's posting estimates put the sparse conjuncts first.
   Conjunct tables are pre-warmed in the cache and every chain formula
   is distinct, so the measured work is the And fold the join order
   actually changes.

   The backend rows run the same workload with each fixed backend and
   with Auto_backend (stats attached, so repeat fingerprints resolve on
   observed latency EWMAs): auto must never be slower than the worse
   fixed choice. *)

type plan_data = {
  pd_segments : int;
  pd_queries : int;
  pd_written : timing;  (* per chain, each arm *)
  pd_planned : timing;
  pd_sql : timing;
  pd_auto : timing;
  pd_identical : bool;
}

let plan_formula_pool () =
  (* open conjuncts over one existential, written dense-coverage
     first -- the worst fold order.  The planner's posting estimates
     rank the sparse attribute atoms first.  The [eventually] tail keeps
     the chain temporal (Direct folds it as one And chain) and the class
     type (2). *)
  let sparse =
    List.map (fun k -> Printf.sprintf "speed(x) = %d" (10 * k))
      (List.init 9 (fun i -> i + 1))
    @ List.map
        (fun n -> Printf.sprintf "name(x) = \"%s\"" n)
        [ "alpha"; "beta"; "gamma"; "delta" ]
  in
  let tail = "eventually (name(x) = \"alpha\")" in
  let pool = Array.of_list sparse in
  let m = Array.length pool in
  (* 39 distinct chains: 13 rotations x 3 strides (13 is prime, so any
     stride visits 6 distinct atoms), dense [present] first *)
  let chain i =
    let start = i mod m and stride = 1 + (i / m) in
    let picks = List.init 6 (fun j -> pool.((start + (j * stride)) mod m)) in
    Printf.sprintf "exists x . (present(x) and %s and %s)"
      (String.concat " and " picks)
      tail
  in
  (* warm carriers: tiny type (2) queries that pull each open conjunct
     (and the shared temporal tail) into the subformula cache, so the
     measured work is the And fold the join order changes *)
  let warm =
    List.map
      (fun a -> Printf.sprintf "exists x . (%s and %s)" a tail)
      ("present(x)" :: sparse)
  in
  (warm, List.init (3 * m) chain)

let plan_data () =
  let rng = Workload.Rng.make 321 in
  let store =
    Workload.Movies.random_store rng ~videos:8 ~levels:3 ~branching:16
      ~object_pool:12 ()
  in
  let warm_queries, queries = plan_formula_pool () in
  let base ?planner () =
    Engine.Context.with_fresh_cache
      (Engine.Context.of_store ?planner store)
  in
  (* one operation is the whole chain pool on a fresh context whose
     conjunct tables were warmed outside the timed region; reported per
     chain *)
  let fs = List.map parse queries in
  let per_chain ?samples ?backend ctx_of =
    let fresh () =
      let ctx = ctx_of () in
      List.iter
        (fun q -> ignore (Engine.Query.run_string ?backend ctx q))
        warm_queries;
      ctx
    in
    let t =
      measure ?samples ~fresh (fun ctx ->
          List.iter (fun f -> ignore (Engine.Query.run ?backend ctx f)) fs)
    in
    let k = float_of_int (List.length fs) in
    {
      median_s = t.median_s /. k;
      q1_s = t.q1_s /. k;
      q3_s = t.q3_s /. k;
      words = t.words /. k;
    }
  in
  let identical =
    let planned = base () and written = base ~planner:false () in
    List.for_all
      (fun q ->
        let f = parse q in
        Sim_list.equal
          (Engine.Query.run planned f)
          (Engine.Query.run written f))
      queries
  in
  let stats = Obs.Stats.create () in
  {
    pd_segments = Engine.Context.segment_count (base ());
    pd_queries = List.length queries;
    pd_written = per_chain (fun () -> base ~planner:false ());
    pd_planned = per_chain base;
    (* an SQL pass takes seconds: three samples keep the section as
       long as the direct arms' seven *)
    pd_sql =
      per_chain ~samples:3 ~backend:Engine.Query.Sql_backend_choice base;
    pd_auto =
      per_chain ~backend:Engine.Query.Auto_backend (fun () ->
          Engine.Context.with_stats (base ()) stats);
    pd_identical = identical;
  }

let join_speedup d = speedup ~slow:d.pd_written ~fast:d.pd_planned

let auto_margin d =
  let worse_fixed =
    if d.pd_planned.median_s >= d.pd_sql.median_s then d.pd_planned
    else d.pd_sql
  in
  speedup ~slow:worse_fixed ~fast:d.pd_auto

let plan_json d =
  let lat name t =
    Json.Obj [ ("name", Json.String name); ("time", timing_json t) ]
  in
  let ratio name v =
    Json.Obj
      [
        ("name", Json.String name);
        ("ratio", Json.Float v);
        ("gate", Json.String "ratio:higher");
      ]
  in
  Json.Obj
    [
      ("bench", Json.String "plan");
      ( "note",
        Json.String
          (timing_note
         ^ "; skewed dense-first type (2) And chains over a store, \
            conjunct tables pre-warmed, timed per chain over the whole \
            pool: with the planner off the chain folds in written order, \
            dense-coverage first; the planner folds sparsest-first; the \
            speedup row (written over planned join order) and the auto \
            margin (worse fixed backend over auto) gate as ratios \
            (higher)" ) );
      ("segments", Json.Int d.pd_segments);
      ("queries", Json.Int d.pd_queries);
      ("results_identical", Json.Bool d.pd_identical);
      ( "join",
        Json.Array
          [
            lat "written" d.pd_written;
            lat "planned" d.pd_planned;
            ratio "speedup" (join_speedup d);
          ] );
      ( "backend",
        Json.Array
          [
            lat "direct" d.pd_planned;
            lat "sql" d.pd_sql;
            lat "auto" d.pd_auto;
            ratio "auto_margin" (auto_margin d);
          ] );
    ]

let bench_plan () =
  header "Plan - cost-based join order and backend choice";
  let d = plan_data () in
  Printf.printf "results identical: %b\n" d.pd_identical;
  if not d.pd_identical then begin
    prerr_endline "plan: planned and written-order results differ";
    exit 1
  end;
  Printf.printf "%-12s %12s\n%!" "arm" "ms/chain";
  List.iter
    (fun (name, t) -> Printf.printf "%-12s %12.3f\n%!" name (t.median_s *. 1e3))
    [
      ("written", d.pd_written);
      ("planned", d.pd_planned);
      ("sql", d.pd_sql);
      ("auto", d.pd_auto);
    ];
  Printf.printf "join speedup (written / planned):    %.2fx\n%!"
    (join_speedup d);
  Printf.printf "auto margin (worse fixed / auto):    %.2fx\n%!"
    (auto_margin d);
  let path = Option.value ~default:"BENCH_plan.json" !opt_json in
  write_json path (plan_json d)

(* ---- regression gate: --check --baseline FILE ----------------------------------

   Re-runs the benchmark section a committed BENCH_*.json baseline came
   from, writes the fresh report next to it as BENCH_<kind>.fresh.json
   (never clobbering the baseline), and compares the gated fields row by
   row.  A timed field gates on its median; a fresh median is a
   regression when it exceeds [base * (1 + tolerance) + 1e-12].  Any
   regression exits 1, which is what CI keys off.  Rows are matched by
   their identity fields; a baseline row or field the fresh run no
   longer produces is reported and skipped, but a check that compared
   nothing at all exits 1 too: a gate whose fields were all renamed
   away must not read as a pass. *)

let opt_check = ref false
let opt_baseline = ref None
let opt_tolerance = ref 0.5

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let member_rows doc name =
  match Json.member name doc with Some v -> Json.to_list v | None -> []

let row_key keys row =
  String.concat "/"
    (List.map
       (fun k ->
         match Json.member k row with
         | Some (Json.String s) -> s
         | Some v -> Json.to_string v
         | None -> "?")
       keys)

(* A baseline row can narrow or redirect the section's gated fields
   with its own "gate" member: "field[:higher][,...]".  A plain field
   gates as a latency (fresh must not exceed base * (1 + tolerance));
   ":higher" marks a throughput-style field, which fails when the fresh
   value drops below base / (1 + tolerance).  Rows without the member
   keep the section's default field list. *)
let gated_fields row ~fields =
  match Json.member "gate" row with
  | Some (Json.String spec) when String.trim spec <> "" ->
      List.map
        (fun part ->
          match String.index_opt part ':' with
          | Some i ->
              ( String.sub part 0 i,
                String.sub part (i + 1) (String.length part - i - 1)
                = "higher" )
          | None -> (part, false))
        (String.split_on_char ',' spec)
  | _ -> List.map (fun f -> (f, false)) fields

(* a timed field is a [timing_json] object and gates on its median; a
   plain number gates as itself *)
let gated_value row field =
  match Json.member field row with
  | Some (Json.Obj _ as t) ->
      Option.bind (Json.member "median_s" t) Json.to_float_opt
  | Some v -> Json.to_float_opt v
  | None -> None

(* Compare one row list.  Returns (fields compared, regressions). *)
let check_rows ~tolerance ~what ~keys ~fields ~base ~fresh =
  let fresh_tbl = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace fresh_tbl (row_key keys r) r) fresh;
  let compared = ref 0 and failures = ref 0 in
  List.iter
    (fun b ->
      let key = row_key keys b in
      match Hashtbl.find_opt fresh_tbl key with
      | None ->
          Printf.printf "  [skip] %s %s: not in the fresh run\n%!" what key
      | Some f ->
          List.iter
            (fun (field, higher) ->
              match (gated_value b field, gated_value f field) with
              | Some bv, Some fv ->
                  incr compared;
                  let failed, allowed =
                    if higher then
                      let floor = (bv /. (1. +. tolerance)) -. 1e-12 in
                      (fv < floor, floor)
                    else
                      let ceiling = (bv *. (1. +. tolerance)) +. 1e-12 in
                      (fv > ceiling, ceiling)
                  in
                  if failed then begin
                    incr failures;
                    Printf.printf
                      "  [FAIL] %s %s %s: %.9f -> %.9f (allowed %.9f)\n%!"
                      what key field bv fv allowed
                  end
                  else
                    Printf.printf "  [ok]   %s %s %s: %.9f -> %.9f\n%!" what
                      key field bv fv
              | _ ->
                  Printf.printf "  [skip] %s %s %s: field missing\n%!" what
                    key field)
            (gated_fields b ~fields))
    base;
  (!compared, !failures)

(* Per bench kind: the fresh report, and the row lists its gate compares
   as (member, what, identity keys, default gated fields). *)
let gates = function
  | "cache" ->
      Some
        ( (fun () -> cache_json (cache_rows ())),
          [ ("rows", "cache", [ "workload"; "name" ], [ "cold"; "warm" ]) ] )
  | "trace" ->
      Some
        ( (fun () -> trace_json (trace_rows ())),
          [ ("rows", "trace", [ "workload"; "name" ], [ "off"; "traced" ]) ] )
  | "parallel" ->
      Some
        ( (fun () ->
            let cores, segments, rows, batch_rows = parallel_data () in
            parallel_json ~cores ~segments rows batch_rows),
          [
            ("rows", "parallel", [ "workload"; "name"; "domains" ], [ "time" ]);
            ("batch", "batch", [ "domains" ], [ "time" ]);
          ] )
  | "index" ->
      Some
        ( (fun () ->
            let segments, reg_rows, prune_rows, open_rows, sweep_rows =
              index_data ()
            in
            index_json ~segments reg_rows prune_rows open_rows sweep_rows),
          [
            ("registry", "registry", [ "name" ], [ "cold"; "warm" ]);
            ("pruning", "pruning", [ "name" ], [ "pruned"; "full" ]);
            ("open", "open", [ "name" ], [ "pruned"; "full" ]);
            ( "selectivity",
              "selectivity",
              [ "selectivity" ],
              [ "pruned"; "full" ] );
          ] )
  | "plan" ->
      (* the join speedup and auto margin rows carry their own gate
         key, ratio:higher *)
      Some
        ( (fun () -> plan_json (plan_data ())),
          [
            ("join", "join", [ "name" ], [ "time" ]);
            ("backend", "backend", [ "name" ], [ "time" ]);
          ] )
  | _ -> None

let run_check () =
  let baseline =
    match !opt_baseline with
    | Some p -> p
    | None ->
        Printf.eprintf "--check requires --baseline FILE\n";
        exit 2
  in
  let src =
    match read_file baseline with
    | src -> src
    | exception Sys_error msg ->
        Printf.eprintf "cannot read baseline: %s\n" msg;
        exit 2
  in
  let base =
    match Json.of_string src with
    | Ok v -> v
    | Error msg ->
        Printf.eprintf "cannot parse %s: %s\n" baseline msg;
        exit 2
  in
  let kind =
    match Json.member "bench" base with
    | Some (Json.String s) -> s
    | _ ->
        Printf.eprintf "%s has no \"bench\" kind field\n" baseline;
        exit 2
  in
  let report, lists =
    match gates kind with
    | Some g -> g
    | None ->
        Printf.eprintf
          "no regression gate for bench kind %S (expected cache, parallel, \
           trace, index or plan)\n"
          kind;
        exit 2
  in
  let fresh = report () in
  write_json (Printf.sprintf "BENCH_%s.fresh.json" kind) fresh;
  let tolerance = !opt_tolerance in
  Printf.printf "checking %s against %s (tolerance %g)\n%!" kind baseline
    tolerance;
  let compared, failures =
    List.fold_left
      (fun (c, f) (member, what, keys, fields) ->
        let c', f' =
          check_rows ~tolerance ~what ~keys ~fields
            ~base:(member_rows base member) ~fresh:(member_rows fresh member)
        in
        (c + c', f + f'))
      (0, 0) lists
  in
  if compared = 0 then begin
    Printf.printf "compared no fields: the baseline matches nothing fresh\n%!";
    exit 1
  end
  else if failures > 0 then begin
    Printf.printf "%d timing regression(s) beyond tolerance %g\n%!" failures
      tolerance;
    exit 1
  end
  else begin
    Printf.printf "compared %d fields\nno regressions (tolerance %g)\n%!"
      compared tolerance;
    exit 0
  end

(* ---- driver -------------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("fig2", fig2);
    ("table5", table5);
    ("table6", table6);
    ("complex", complex);
    ("cache", bench_cache);
    ("parallel", bench_parallel);
    ("trace", bench_trace);
    ("index", bench_index);
    ("plan", bench_plan);
    ("ablation-sort", ablation_sort);
    ("ablation-threshold", ablation_threshold);
    ("ablation-merge", ablation_merge);
    ("ablation-linear", ablation_linear);
    ("ablation-semantics", ablation_semantics);
  ]

let () =
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--domains" :: v :: rest ->
        (match int_of_string_opt v with
        | Some d when d >= 1 -> opt_domains := Some d
        | Some _ | None ->
            Printf.eprintf "--domains expects a positive integer, got %S\n" v;
            exit 1);
        parse_args acc rest
    | [ "--domains" ] ->
        Printf.eprintf "--domains expects a value\n";
        exit 1
    | "--json" :: path :: rest ->
        opt_json := Some path;
        parse_args acc rest
    | [ "--json" ] ->
        Printf.eprintf "--json expects a path\n";
        exit 1
    | "--check" :: rest ->
        opt_check := true;
        parse_args acc rest
    | "--baseline" :: path :: rest ->
        opt_baseline := Some path;
        parse_args acc rest
    | [ "--baseline" ] ->
        Printf.eprintf "--baseline expects a path\n";
        exit 1
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t -> opt_tolerance := t
        | None ->
            Printf.eprintf "--tolerance expects a number, got %S\n" v;
            exit 1);
        parse_args acc rest
    | [ "--tolerance" ] ->
        Printf.eprintf "--tolerance expects a value\n";
        exit 1
    | s :: rest -> parse_args (s :: acc) rest
  in
  let wanted = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  if !opt_check then run_check ();
  let to_run =
    if wanted = [] then sections
    else
      List.map
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> (name, f)
          | None ->
              Printf.eprintf "unknown section %S; known: %s\n" name
                (String.concat ", " (List.map fst sections));
              exit 1)
        wanted
  in
  Printf.printf
    "Similarity Based Retrieval of Videos (ICDE 1997) - benchmark harness\n";
  List.iter (fun (_, f) -> f ()) to_run
