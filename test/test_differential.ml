(* Cross-backend differential test harness.

   For randomly generated closed HTL formulas (stratified over the type
   (1), type (2) and conjunctive fragments; see Helpers for the
   generators and the shrinker), the four evaluators must agree segment
   by segment within a 1e-9 float tolerance:

     - Reference.similarity_over_level  (the naive per-id oracle)
     - Direct with caching disabled     (cold)
     - Direct with the subformula cache (first run populates, second run
       answers from cache — both must be identical to cold)
     - the SQL backend

   This is the correctness harness for the memoizing evaluation layer:
   a cache bug (bad key, stale entry, broken LRU relink) shows up here as
   a warm/cold divergence on some generated formula. *)

open Engine
module Sim_list = Simlist.Sim_list

let tolerance = 1e-9

let fail_diff ~backend ~formula ~id ~expected ~got =
  QCheck.Test.fail_reportf
    "%s disagrees with the reference on %s at id %d: expected %.12g, got %.12g"
    backend
    (Htl.Pretty.to_string formula)
    id expected got

(* Evaluate [f] through all four evaluators over [ctx] (which has its
   private cache enabled) and cross-check everything. *)
let differential ctx f =
  let cold_ctx = Context.without_cache ctx in
  let oracle = Reference.similarity_over_level cold_ctx f in
  let n = Array.length oracle in
  let against_oracle backend list =
    let dense = Sim_list.to_dense ~n list in
    Array.iteri
      (fun i s ->
        let expected = Simlist.Sim.actual s in
        if Float.abs (expected -. dense.(i)) > tolerance then
          fail_diff ~backend ~formula:f ~id:(i + 1) ~expected ~got:dense.(i))
      oracle
  in
  let cold = Query.run cold_ctx f in
  let warm_fill = Query.run ctx f in
  let warm_hit = Query.run ctx f in
  let sql = Query.run ~backend:Query.Sql_backend_choice cold_ctx f in
  against_oracle "direct (no cache)" cold;
  against_oracle "direct (cache, filling)" warm_fill;
  against_oracle "direct (cache, warm)" warm_hit;
  against_oracle "sql" sql;
  (* the three direct evaluations run the same algorithms, so they must
     agree exactly, not just within tolerance *)
  if not (Sim_list.equal cold warm_fill) then
    QCheck.Test.fail_reportf "cache-filling run differs from cold on %s"
      (Htl.Pretty.to_string f);
  if not (Sim_list.equal warm_fill warm_hit) then
    QCheck.Test.fail_reportf "warm (cached) run differs from cold on %s"
      (Htl.Pretty.to_string f);
  (match Query.cache_stats ctx with
  | Some s when s.Cache.hits = 0 ->
      QCheck.Test.fail_reportf
        "re-evaluating %s never hit the cache (stats %s)"
        (Htl.Pretty.to_string f)
        (Format.asprintf "%a" Cache.pp_stats s)
  | Some _ -> ()
  | None -> QCheck.Test.fail_reportf "context unexpectedly has no cache");
  true

(* --- the store strata ---------------------------------------------------- *)

let store_of_seed ?(videos = 1) seed =
  let rng = Workload.Rng.make seed in
  Workload.Movies.random_store rng ~videos ~branching:4 ~object_pool:4 ()

let store_prop ?videos (seed, f) =
  let ctx = Context.of_store (store_of_seed ?videos seed) in
  differential ctx f

(* Longer shot sequences (up to 12 per video) over two objects: an until
   corridor then often crosses a change of a frozen attribute, which an
   evaluation split into one row per frozen value cannot follow. *)
let long_store_prop (seed, f) =
  let rng = Workload.Rng.make seed in
  let store =
    Workload.Movies.random_store rng ~branching:12 ~object_pool:2 ()
  in
  differential (Context.of_store store) f

(* --- the precomputed-table stratum (the §4.2 setting) --------------------- *)

let table_names = [ "p1"; "p2"; "p3" ]

let table_prop (seed, f) =
  let rng = Workload.Rng.make seed in
  let n = 10 + Workload.Rng.int rng 40 in
  let ctx =
    Workload.Synthetic.context_with_atoms ~seed:(seed + 1) ~n ~selectivity:0.4
      table_names
  in
  (* the shrinker may propose [true], which store-less contexts cannot
     resolve to a table; treat unsupported formulas as vacuously passing
     so shrinking stays inside the supported space *)
  match differential ctx f with
  | ok -> ok
  | exception Query.Error _ -> true

(* --- parallel vs sequential ---------------------------------------------- *)

(* One pool per size, shared by all the property runs (spawning domains
   per QCheck iteration would dominate the suite's runtime).  The pools
   are pure schedulers, so sharing them cannot couple the test cases. *)
let pools =
  lazy (List.map (fun d -> Parallel.Pool.create ~domains:d ()) [ 1; 2; 4 ])

let () =
  at_exit (fun () ->
      if Lazy.is_val pools then
        List.iter Parallel.Pool.shutdown (Lazy.force pools))

(* The parallel evaluator must be observationally identical to the
   sequential one: same similarity list, or the same refusal.  Exercised
   with the cutoff forced to 0 so every parallel code path triggers even
   on the tiny generated stores, across pool sizes 1/2/4, cache on and
   off. *)
let parallel_differential ctx f =
  let outcome ctx =
    match Query.run ctx f with
    | list -> Ok list
    | exception Query.Error msg -> Error msg
  in
  let seq = outcome (Context.without_cache ctx) in
  List.iter
    (fun pool ->
      let pctx = Context.with_pool ~par_cutoff:0 ctx pool in
      List.iter
        (fun (label, pctx) ->
          match (seq, outcome pctx) with
          | Ok a, Ok b ->
              if not (Sim_list.equal a b) then
                QCheck.Test.fail_reportf
                  "parallel (%s, %d domains) differs from sequential on %s"
                  label
                  (Parallel.Pool.domain_count pool)
                  (Htl.Pretty.to_string f)
          | Error _, Error _ -> ()
          | Ok _, Error msg ->
              QCheck.Test.fail_reportf
                "parallel (%s, %d domains) refused %s that sequential \
                 accepted: %s"
                label
                (Parallel.Pool.domain_count pool)
                (Htl.Pretty.to_string f) msg
          | Error msg, Ok _ ->
              QCheck.Test.fail_reportf
                "parallel (%s, %d domains) accepted %s that sequential \
                 refused: %s"
                label
                (Parallel.Pool.domain_count pool)
                (Htl.Pretty.to_string f) msg)
        [ ("no cache", Context.without_cache pctx); ("cache", pctx) ])
    (Lazy.force pools);
  true

let par_store_prop ?videos (seed, f) =
  let ctx = Context.of_store (store_of_seed ?videos seed) in
  parallel_differential ctx f

let par_table_prop (seed, f) =
  let rng = Workload.Rng.make seed in
  let n = 10 + Workload.Rng.int rng 40 in
  let ctx =
    Workload.Synthetic.context_with_atoms ~seed:(seed + 1) ~n ~selectivity:0.4
      table_names
  in
  parallel_differential ctx f

(* --- traced vs untraced ---------------------------------------------------

   Attaching a tracer and a metrics registry must be observationally
   invisible: same similarity list (exactly — the instrumented code path
   runs the same algorithms), or the same refusal, on both backends.
   Every recorded span must also come back closed, or the recorder
   leaked an open span past Query.run. *)
let traced_differential ctx f =
  let outcome ctx backend =
    match Query.run ~backend ctx f with
    | list -> Ok list
    | exception Query.Error msg -> Error msg
  in
  List.iter
    (fun (bname, backend) ->
      let plain = outcome ctx backend in
      let tracer = Obs.Trace.create () in
      let tctx =
        Context.with_metrics
          (Context.with_tracer (Context.with_fresh_cache ctx) tracer)
          (Obs.Metrics.create ())
      in
      (match (plain, outcome tctx backend) with
      | Ok a, Ok b ->
          if not (Sim_list.equal a b) then
            QCheck.Test.fail_reportf "tracing changes %s's result on %s" bname
              (Htl.Pretty.to_string f)
      | Error _, Error _ -> ()
      | Ok _, Error msg ->
          QCheck.Test.fail_reportf
            "traced %s refused %s that untraced accepted: %s" bname
            (Htl.Pretty.to_string f) msg
      | Error msg, Ok _ ->
          QCheck.Test.fail_reportf
            "traced %s accepted %s that untraced refused: %s" bname
            (Htl.Pretty.to_string f) msg);
      List.iter
        (fun (s : Obs.Trace.span) ->
          if Float.is_nan s.Obs.Trace.stop_s then
            QCheck.Test.fail_reportf "span %s left open after %s on %s"
              s.Obs.Trace.name bname
              (Htl.Pretty.to_string f))
        (Obs.Trace.spans tracer))
    [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ];
  true

let traced_store_prop ?videos (seed, f) =
  let ctx = Context.of_store (store_of_seed ?videos seed) in
  traced_differential ctx f

(* --- accounted vs plain ----------------------------------------------------

   The slow-query log (with a metrics registry feeding its scan deltas)
   must be as invisible as a tracer: same similarity list or the same
   refusal on both backends.  With the threshold at 0 every run must
   also leave exactly one record, carrying the formula's hash-consed
   fingerprint and an error field that agrees with the outcome. *)
let accounted_differential ctx f =
  let outcome ctx backend =
    match Query.run ~backend ctx f with
    | list -> Ok list
    | exception Query.Error msg -> Error msg
  in
  List.iter
    (fun (bname, backend) ->
      let plain = outcome ctx backend in
      let ql = Obs.Querylog.create ~threshold_s:0. () in
      let qctx =
        Context.with_querylog
          (Context.with_metrics (Context.with_fresh_cache ctx)
             (Obs.Metrics.create ()))
          ql
      in
      (match (plain, outcome qctx backend) with
      | Ok a, Ok b ->
          if not (Sim_list.equal a b) then
            QCheck.Test.fail_reportf "accounting changes %s's result on %s"
              bname
              (Htl.Pretty.to_string f)
      | Error _, Error _ -> ()
      | Ok _, Error msg ->
          QCheck.Test.fail_reportf
            "accounted %s refused %s that plain accepted: %s" bname
            (Htl.Pretty.to_string f) msg
      | Error msg, Ok _ ->
          QCheck.Test.fail_reportf
            "accounted %s accepted %s that plain refused: %s" bname
            (Htl.Pretty.to_string f) msg);
      match Obs.Querylog.records ql with
      | [ r ] ->
          if r.Obs.Querylog.formula_id <> Htl.Hcons.intern_id f then
            QCheck.Test.fail_reportf
              "slow-log fingerprint %d does not match %s (id %d)"
              r.Obs.Querylog.formula_id
              (Htl.Pretty.to_string f)
              (Htl.Hcons.intern_id f);
          if Option.is_some r.Obs.Querylog.error <> Result.is_error plain then
            QCheck.Test.fail_reportf
              "slow-log error field disagrees with %s's outcome on %s" bname
              (Htl.Pretty.to_string f);
          if r.Obs.Querylog.latency_s < 0. then
            QCheck.Test.fail_reportf "negative latency recorded on %s"
              (Htl.Pretty.to_string f)
      | rs ->
          QCheck.Test.fail_reportf
            "%s left %d slow-log records for one query on %s" bname
            (List.length rs)
            (Htl.Pretty.to_string f))
    [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ];
  true

let accounted_store_prop ?videos (seed, f) =
  let ctx = Context.of_store (store_of_seed ?videos seed) in
  accounted_differential ctx f

(* --- pruned vs full scan ---------------------------------------------------

   Candidate pruning through the finalized index must be observationally
   identical to the full scan it replaces: same similarity list (exactly
   — segments outside a sound candidate set contribute credit 0), or the
   same refusal, on both backends, sequentially and across pool sizes
   1/2 with the cutoff forced to 0.  A pruning bug (unsound candidate
   plan, broken galloping intersection, stale postings) shows up here as
   a pruned/full divergence on some generated formula. *)
let pruning_differential store f =
  let outcome ctx backend =
    match Query.run ~backend ctx f with
    | list -> Ok list
    | exception Query.Error msg -> Error msg
  in
  let full_config =
    { Picture.Retrieval.default_config with prune = false }
  in
  let pruned = Context.of_store store in
  let full = Context.of_store ~config:full_config store in
  let variants ctx =
    (Context.without_cache ctx, "sequential")
    :: List.map
         (fun pool ->
           ( Context.with_pool ~par_cutoff:0 (Context.without_cache ctx) pool,
             Printf.sprintf "%d domains" (Parallel.Pool.domain_count pool) ))
         (List.filteri (fun i _ -> i < 2) (Lazy.force pools))
  in
  List.iter
    (fun (bname, backend) ->
      List.iter2
        (fun (pctx, label) (fctx, _) ->
          match (outcome pctx backend, outcome fctx backend) with
          | Ok a, Ok b ->
              if not (Sim_list.equal a b) then
                QCheck.Test.fail_reportf
                  "pruned (%s, %s) differs from full scan on %s" bname label
                  (Htl.Pretty.to_string f)
          | Error _, Error _ -> ()
          | Ok _, Error msg ->
              QCheck.Test.fail_reportf
                "full scan (%s, %s) refused %s that pruned accepted: %s" bname
                label
                (Htl.Pretty.to_string f)
                msg
          | Error msg, Ok _ ->
              QCheck.Test.fail_reportf
                "pruned (%s, %s) refused %s that full scan accepted: %s" bname
                label
                (Htl.Pretty.to_string f)
                msg)
        (variants pruned) (variants full))
    [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ];
  true

let pruning_store_prop ?videos (seed, f) =
  pruning_differential (store_of_seed ?videos seed) f

(* --- streaming ingestion ---------------------------------------------------

   Random interleavings of appends, effective edits and no-op mutations
   against a long-lived context — and a sharded deployment mirroring
   every mutation — must agree byte for byte, at every query point, with
   a from-scratch rebuild of the store: the one evaluator that cannot
   hold a stale cache entry or index posting.  This is the correctness
   harness for the incremental-ingestion layer; a delta-merge bug, an
   over-surviving cache entry, or a mis-routed shard append shows up as
   a live/rebuild divergence on some interleaving. *)

module Sharded = Htl_shard.Sharded

let streaming_differential ~seed store f =
  let ctx = Context.of_store store in
  let sh = Sharded.create ~shards:2 store in
  let rng = Workload.Rng.make (seed + 7919) in
  let leaf = Video_model.Store.levels store in
  let check step =
    if Sharded.version sh <> Video_model.Store.version store then
      QCheck.Test.fail_reportf
        "after %d mutations the shard versions sum to %d, the store reads %d"
        step (Sharded.version sh)
        (Video_model.Store.version store);
    let rebuilt =
      Context.without_cache
        (Context.of_store
           (Video_model.Store.create (Video_model.Store.current_videos store)))
    in
    List.iter
      (fun (bname, backend) ->
        let outcome run =
          match run () with
          | list -> Ok list
          | exception Query.Error msg -> Error msg
        in
        let oracle = outcome (fun () -> Query.run ~backend rebuilt f) in
        let agree what r =
          match (oracle, r) with
          | Ok a, Ok b ->
              if not (Sim_list.equal a b) then
                QCheck.Test.fail_reportf
                  "%s (%s) differs from the from-scratch rebuild after %d \
                   mutations on %s"
                  what bname step
                  (Htl.Pretty.to_string f)
          | Error _, Error _ -> ()
          | _ ->
              QCheck.Test.fail_reportf
                "%s (%s) changes the outcome class after %d mutations on %s"
                what bname step
                (Htl.Pretty.to_string f)
        in
        agree "live context" (outcome (fun () -> Query.run ~backend ctx f));
        agree "sharded" (outcome (fun () -> Sharded.run ~backend sh f)))
      [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ]
  in
  (* Apply the same mutation to the plain store and the sharded mirror;
     contiguous partitioning preserves global ids, so the arguments
     coincide. *)
  let mutate () =
    let id () =
      1 + Workload.Rng.int rng (Video_model.Store.count_at store ~level:leaf)
    in
    match Workload.Rng.int rng 4 with
    | 0 ->
        let metas =
          List.init
            (1 + Workload.Rng.int rng 2)
            (fun _ -> Workload.Movies.random_meta rng ~object_pool:4)
        in
        Video_model.Store.append_segments store metas;
        Sharded.append_segments sh metas
    | 1 ->
        let id = id () in
        let v = Metadata.Value.Str (Workload.Rng.pick rng [ "calm"; "tense" ]) in
        Video_model.Store.set_attr store ~level:leaf ~id ~name:"mood" v;
        Sharded.set_attr sh ~level:leaf ~id ~name:"mood" v
    | 2 ->
        let id = id () in
        Video_model.Store.update_meta store ~level:leaf ~id ~f:Fun.id;
        Sharded.update_meta sh ~level:leaf ~id ~f:Fun.id
    | _ ->
        let id = id () in
        Video_model.Store.remove_attr store ~level:leaf ~id ~name:"absent";
        Sharded.remove_attr sh ~level:leaf ~id ~name:"absent"
  in
  check 0;
  let steps = ref 0 in
  for _round = 1 to 3 do
    for _ = 1 to 1 + Workload.Rng.int rng 2 do
      mutate ();
      incr steps
    done;
    check !steps
  done;
  true

let streaming_store_prop ?videos (seed, f) =
  streaming_differential ~seed (store_of_seed ?videos seed) f

let traced_table_prop (seed, f) =
  let rng = Workload.Rng.make seed in
  let n = 10 + Workload.Rng.int rng 40 in
  let ctx =
    Workload.Synthetic.context_with_atoms ~seed:(seed + 1) ~n ~selectivity:0.4
      table_names
  in
  traced_differential ctx f

let accounted_table_prop (seed, f) =
  let rng = Workload.Rng.make seed in
  let n = 10 + Workload.Rng.int rng 40 in
  let ctx =
    Workload.Synthetic.context_with_atoms ~seed:(seed + 1) ~n ~selectivity:0.4
      table_names
  in
  accounted_differential ctx f

let suites =
  [
    ( "differential",
      [
        Helpers.qtest ~count:120 "reference = direct = cached = sql (tables)"
          table_prop
          (Helpers.arb_table_formula ~names:table_names ());
        Helpers.qtest ~count:60 "reference = direct = cached = sql (type 1)"
          (store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:60 "reference = direct = cached = sql (type 2)"
          store_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:60
          "reference = direct = cached = sql (conjunctive)" store_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:500
          "reference = direct = cached = sql (conjunctive, long shots)"
          long_store_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:60 "reference = direct = cached = sql (mixed)"
          store_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Helpers.qtest ~count:60 "parallel = sequential (tables)" par_table_prop
          (Helpers.arb_table_formula ~names:table_names ());
        Helpers.qtest ~count:40 "parallel = sequential (type 1)"
          (par_store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:40 "parallel = sequential (type 2)" par_store_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:40 "parallel = sequential (conjunctive)"
          par_store_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:40 "parallel = sequential (mixed)" par_store_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Helpers.qtest ~count:40 "pruned = full scan (type 1)"
          (pruning_store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:40 "pruned = full scan (type 2)"
          pruning_store_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:40 "pruned = full scan (conjunctive)"
          pruning_store_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:40 "pruned = full scan (mixed)"
          pruning_store_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Helpers.qtest ~count:30 "streaming: live = rebuild (type 1)"
          (streaming_store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:30 "streaming: live = rebuild (mixed)"
          (streaming_store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Helpers.qtest ~count:40 "traced = untraced (tables)" traced_table_prop
          (Helpers.arb_table_formula ~names:table_names ());
        Helpers.qtest ~count:30 "traced = untraced (type 1)"
          (traced_store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:30 "traced = untraced (type 2)" traced_store_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:30 "traced = untraced (conjunctive)"
          traced_store_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:40 "accounted = plain (tables)"
          accounted_table_prop
          (Helpers.arb_table_formula ~names:table_names ());
        Helpers.qtest ~count:30 "accounted = plain (mixed)"
          (accounted_store_prop ~videos:2)
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
      ] );
  ]
