(* Sharded scatter–gather evaluation and binary snapshots.

   The load-bearing property is byte-equality: partitioning a store into
   N shards and gathering the per-shard similarity lists must reproduce
   the unsharded evaluation exactly — same entries, same max — across
   shard counts, formula strata, backends and pool sizes.  Snapshots
   must round-trip to the same bytes and answer queries with zero index
   rebuilds; corrupted files must be rejected with the right typed
   error. *)

open Engine
module Sharded = Htl_shard.Sharded
module Sim_list = Simlist.Sim_list
module Sim = Simlist.Sim
module Store = Video_model.Store
module Snapshot = Storage.Snapshot

let store_of_seed ?(videos = 6) seed =
  let rng = Workload.Rng.make seed in
  Workload.Movies.random_store rng ~videos ~branching:4 ~object_pool:4 ()

let parse src =
  match Htl.Parser.formula_of_string_opt src with
  | Ok f -> f
  | Error msg -> Alcotest.failf "cannot parse %S: %s" src msg

let q_train = "exists x . (present(x) and type(x) = \"train\")"
let q_mood = "seg.mood = \"tense\""

let counter m name =
  match List.assoc_opt name (Obs.Metrics.snapshot m) with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* one shared 2-domain pool; spawning per test case would dominate *)
let pool2 = lazy (Parallel.Pool.create ~domains:2 ())

let () =
  at_exit (fun () ->
      if Lazy.is_val pool2 then Parallel.Pool.shutdown (Lazy.force pool2))

(* --- sharded = unsharded differential ------------------------------------ *)

let shard_counts = [ 1; 2; 4; 8 ]

let sharded_differential ?videos (seed, f) =
  let store = store_of_seed ?videos seed in
  let outcome g =
    match g () with l -> Ok l | exception Query.Error msg -> Error msg
  in
  List.iter
    (fun (bname, backend) ->
      let plain =
        outcome (fun () ->
            Query.run ~backend
              (Context.without_cache (Context.of_store store))
              f)
      in
      List.iter
        (fun shards ->
          List.iter
            (fun (plabel, pool) ->
              let sh =
                Sharded.create ~shards ?pool ~par_cutoff:0 store
              in
              match (plain, outcome (fun () -> Sharded.run ~backend sh f)) with
              | Ok a, Ok b ->
                  if not (Sim_list.equal a b) then
                    QCheck.Test.fail_reportf
                      "%d-shard (%s, %s) differs from unsharded on %s" shards
                      bname plabel
                      (Htl.Pretty.to_string f)
              | Error _, Error _ -> ()
              | Ok _, Error msg ->
                  QCheck.Test.fail_reportf
                    "%d-shard (%s, %s) refused %s that unsharded accepted: %s"
                    shards bname plabel
                    (Htl.Pretty.to_string f)
                    msg
              | Error msg, Ok _ ->
                  QCheck.Test.fail_reportf
                    "%d-shard (%s, %s) accepted %s that unsharded refused: %s"
                    shards bname plabel
                    (Htl.Pretty.to_string f)
                    msg)
            [ ("sequential", None); ("pool 2", Some (Lazy.force pool2)) ])
        shard_counts)
    [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ];
  true

let sharded_store_prop ?videos (seed, f) = sharded_differential ?videos (seed, f)

(* --- gathers against the materialising oracle ------------------------------ *)

let print_parts (parts, k) =
  Format.asprintf "k=%d parts=[%s]" k
    (String.concat "; "
       (List.map
          (fun p ->
            String.concat "," (List.map string_of_float (Array.to_list p)))
          parts))

let arb_shard_parts =
  let open QCheck.Gen in
  let gen =
    int_range 1 5 >>= fun shards ->
    list_repeat shards
      (int_range 1 25 >>= fun n ->
       list_repeat n
         (frequency [ (1, pure 0.); (3, float_bound_inclusive 1.) ])
       >|= Array.of_list)
    >>= fun parts ->
    let total = List.fold_left (fun a p -> a + Array.length p) 0 parts in
    int_range 0 (total + 3) >|= fun k -> (parts, k)
  in
  QCheck.make ~print:print_parts gen

(* Shard boundaries where the value carries straight across: every
   shard after the first starts with the value the previous one ended
   on (non-zero), from a three-value alphabet so runs and ties abound —
   the case where the merged list coalesces and the count needs its
   boundary correction. *)
let arb_abutting_parts =
  let open QCheck.Gen in
  let value = oneofl [ 0.25; 0.5; 1. ] in
  let gen =
    int_range 2 5 >>= fun shards ->
    list_repeat shards
      (int_range 1 8 >>= fun n ->
       list_repeat n (frequency [ (1, pure 0.); (4, value) ]) >|= Array.of_list)
    >>= fun parts ->
    let rec carry prev = function
      | [] -> []
      | p :: rest ->
          let p = Array.copy p in
          let last = Array.length p - 1 in
          (match prev with
          | Some v -> p.(0) <- v
          | None -> ());
          if p.(last) = 0. then p.(last) <- 0.5;
          p :: carry (Some p.(last)) rest
    in
    let parts = carry None parts in
    let total = List.fold_left (fun a p -> a + Array.length p) 0 parts in
    int_range 0 (total + 3) >|= fun k -> (parts, k)
  in
  QCheck.make ~print:print_parts gen

(* The gathers over shifted per-shard lists — [Sim_list.concat],
   [Sim_list.concat_length] and [Topk.merged_top_k] — against the list
   materialised from the concatenated dense arrays. *)
let gather_prop (parts, k) =
  let lists = List.map (Sim_list.of_dense ~max:1.) parts in
  let offsets =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) p -> (off + Array.length p, off :: acc))
            (0, []) parts))
  in
  let shifted = List.combine lists offsets in
  let whole = Sim_list.of_dense ~max:1. (Array.concat parts) in
  let merged = Engine.Topk.merged_top_k shifted ~k in
  let oracle = Engine.Topk.top_k whole ~k in
  let show l =
    String.concat "; "
      (List.map
         (fun (id, s) -> Printf.sprintf "%d:%.6f" id (Sim.actual s))
         l)
  in
  if
    List.length merged <> List.length oracle
    || not
         (List.for_all2
            (fun (i1, s1) (i2, s2) ->
              i1 = i2 && Sim.actual s1 = Sim.actual s2)
            merged oracle)
  then
    QCheck.Test.fail_reportf "merged [%s] <> oracle [%s]" (show merged)
      (show oracle);
  if not (Sim_list.equal (Sim_list.concat shifted) whole) then
    QCheck.Test.fail_reportf "concat %a <> oracle %a" Sim_list.pp
      (Sim_list.concat shifted) Sim_list.pp whole;
  if Sim_list.concat_length shifted <> Sim_list.length whole then
    QCheck.Test.fail_reportf "concat_length %d <> oracle length %d"
      (Sim_list.concat_length shifted)
      (Sim_list.length whole);
  true

(* --- Sharded.top_k = length and top_k of the merged list ------------------- *)

let top_k_ks = [ 0; 1; 7; 1000 ]

(* [(count, top)] from the list-free gather against both the merged list
   of [Sharded.run] and the unsharded [Query.run], for every shard count,
   backend and k; both arms must also agree on refusing a formula. *)
let sharded_top_k_prop (seed, f) =
  let store = store_of_seed seed in
  let outcome g =
    match g () with r -> Ok r | exception Query.Error msg -> Error msg
  in
  let expect k l = (Sim_list.length l, Topk.top_k l ~k) in
  List.iter
    (fun (bname, backend) ->
      let plain =
        outcome (fun () ->
            Query.run ~backend
              (Context.without_cache (Context.of_store store))
              f)
      in
      List.iter
        (fun shards ->
          let sh = Sharded.create ~shards store in
          List.iter
            (fun k ->
              let got = outcome (fun () -> Sharded.top_k ~backend sh ~k f) in
              let merged = outcome (fun () -> Sharded.run ~backend sh f) in
              match (got, merged, plain) with
              | Ok g, Ok m, Ok p ->
                  if g <> expect k m || g <> expect k p then
                    QCheck.Test.fail_reportf
                      "%d-shard (%s) top %d of %s: count %d vs merged %d / \
                       unsharded %d"
                      shards bname k
                      (Htl.Pretty.to_string f)
                      (fst g) (Sim_list.length m) (Sim_list.length p)
              | Error _, Error _, Error _ -> ()
              | _ ->
                  QCheck.Test.fail_reportf
                    "%d-shard (%s) outcome classes differ on %s" shards bname
                    (Htl.Pretty.to_string f))
            top_k_ks)
        [ 1; 2; 4 ])
    [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ];
  true

(* --- unit: partitioning, routing, batches, explain ------------------------ *)

let unit_tests =
  let open Alcotest in
  [
    test_case "partition covers the corpus with monotone offsets" `Quick
      (fun () ->
        let store = store_of_seed 7 in
        List.iter
          (fun shards ->
            let sh = Sharded.create ~shards store in
            check bool "shard count bounded" true
              (Sharded.shard_count sh >= 1 && Sharded.shard_count sh <= shards);
            let level = Sharded.level sh in
            check int "segments preserved"
              (Store.count_at store ~level)
              (Sharded.segment_count sh);
            let off = Sharded.offsets sh in
            Array.iteri
              (fun i o -> if i > 0 then
                  check bool "offsets increase" true (o > off.(i - 1)))
              off)
          shard_counts);
    test_case "locate inverts the offset map" `Quick (fun () ->
        let store = store_of_seed 11 in
        let sh = Sharded.create ~shards:3 store in
        let level = Sharded.level sh in
        let off = Sharded.offsets sh in
        for id = 1 to Sharded.segment_count sh do
          let shard, local = Sharded.locate sh ~level ~id in
          check int (Printf.sprintf "id %d round-trips" id) id
            (off.(shard) + local)
        done;
        check_raises "id 0 rejected"
          (Invalid_argument "Sharded.locate: id 0 out of range") (fun () ->
            ignore (Sharded.locate sh ~level ~id:0)));
    test_case "top_k equals unsharded top_k" `Quick (fun () ->
        let store = store_of_seed 13 in
        let ctx = Context.of_store store in
        let sh = Sharded.create ~shards:4 store in
        List.iter
          (fun k ->
            let plain = Query.top_k ctx ~k q_train in
            let count, sharded = Sharded.top_k sh ~k (parse q_train) in
            check bool
              (Printf.sprintf "top %d agrees" k)
              true (plain = sharded);
            check int "count is the merged length"
              (Sim_list.length (Query.run_string ctx q_train))
              count)
          [ 0; 1; 5; 1000 ]);
    test_case "count coalesces values abutting across every shard" `Quick
      (fun () ->
        (* [true] scores 1 on every segment: one entry per extent
           unsharded, so each shard boundary inside the corpus must be
           subtracted from the per-shard lengths *)
        let store = store_of_seed 19 in
        let f = Htl.Ast.Atom Htl.Ast.True in
        let plain = Query.run (Context.of_store store) f in
        List.iter
          (fun shards ->
            let sh = Sharded.create ~shards store in
            let count, top = Sharded.top_k sh ~k:3 f in
            check int
              (Printf.sprintf "%d-shard count" shards)
              (Sim_list.length plain) count;
            check (list int) "top ids" [ 1; 2; 3 ] (List.map fst top))
          [ 2; 4; 8 ]);
    test_case "with_level matches unsharded at every level" `Quick (fun () ->
        let store = store_of_seed 17 in
        let sh = Sharded.create ~shards:3 store in
        for level = 1 to Sharded.levels sh do
          let ctx =
            Context.with_level (Context.of_store store) ~level
              ~extents:(Store.extents_at store ~level)
          in
          let shl = Sharded.with_level sh ~level in
          let plain = Query.run_string ctx q_mood in
          let sharded = Sharded.run_string shl q_mood in
          check bool
            (Printf.sprintf "level %d agrees" level)
            true
            (Sim_list.equal plain sharded)
        done);
    test_case "mutation routes to the owning shard only" `Quick (fun () ->
        let store = store_of_seed 23 in
        let m = Obs.Metrics.create () in
        let sh = Sharded.create ~shards:4 ~metrics:m store in
        let level = Sharded.level sh in
        let versions () =
          Array.map
            (fun ctx -> Context.store_version ctx)
            (Sharded.contexts sh)
        in
        (* warm every shard's registry *)
        ignore (Sharded.run_string sh q_mood);
        let builds_warm = counter m "picture.index.builds" in
        check int "one build per shard" (Sharded.shard_count sh) builds_warm;
        let before = versions () in
        Sharded.set_attr sh ~level ~id:1 ~name:"mood"
          (Metadata.Value.Str "tense");
        let after = versions () in
        let bumped = ref 0 in
        Array.iteri
          (fun i v -> if v <> before.(i) then incr bumped)
          after;
        check int "exactly one shard version bumped" 1 !bumped;
        (* re-query: only the mutated shard rebuilds its index *)
        ignore (Sharded.run_string sh q_mood);
        check int "one rebuild after one mutation" (builds_warm + 1)
          (counter m "picture.index.builds");
        (* and the result reflects the edit *)
        let l = Sharded.run_string sh q_mood in
        check bool "edited segment now matches" true
          (Sim_list.value_at l 1 > 0.));
    test_case "run_batch isolates failing slots" `Quick (fun () ->
        let store = store_of_seed 29 in
        let sh = Sharded.create ~shards:2 store in
        let good = parse q_train in
        let bad =
          (* general class: Classify.check rejects negation *)
          Htl.Ast.Not (Htl.Ast.Exists ("x", Htl.Ast.Atom (Htl.Ast.Present "x")))
        in
        match Sharded.run_batch sh ~k:5 [ good; bad; good ] with
        | [ Ok a; Error msg; Ok b ] ->
            check bool "good slots agree" true (a = b);
            check bool "error names the rejection" true
              (Astring.String.is_infix ~affix:"negation" msg);
            let plain =
              Query.run (Context.of_store store) good
            in
            check bool "good slot equals unsharded" true
              (a = (Sim_list.length plain, Topk.top_k plain ~k:5))
        | rs -> Alcotest.failf "expected [Ok; Error; Ok], got %d slots"
                  (List.length rs));
    test_case "sharded query counts once, not per shard" `Quick (fun () ->
        let store = store_of_seed 31 in
        let m = Obs.Metrics.create () in
        let sh = Sharded.create ~shards:4 ~metrics:m store in
        ignore (Sharded.run_string sh q_train);
        check int "query.count" 1 (counter m "query.count");
        check int "shard.queries" (Sharded.shard_count sh)
          (counter m "shard.queries"));
    test_case "slow log records per-shard latencies" `Quick (fun () ->
        let store = store_of_seed 37 in
        let ql = Obs.Querylog.create ~threshold_s:0. () in
        let sh = Sharded.create ~shards:3 ~querylog:ql store in
        ignore (Sharded.run_string sh q_train);
        match Obs.Querylog.records ql with
        | [ r ] ->
            check int "one latency per shard" (Sharded.shard_count sh)
              (List.length r.Obs.Querylog.shards);
            List.iteri
              (fun i (ord, s) ->
                check int "ordinals in order" i ord;
                check bool "latency non-negative" true (s >= 0.))
              r.Obs.Querylog.shards
        | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
    test_case "slow log counts every shard's scans" `Quick (fun () ->
        (* without candidate pruning, whose full-scan fallback each
           shard decides on its own share, every atom scans each shard
           whole, so the shards' counts add up to the unsharded ones *)
        let store = store_of_seed ~videos:12 43 in
        let config = { Picture.Retrieval.default_config with prune = false } in
        let scans shards f =
          let ql = Obs.Querylog.create ~threshold_s:0. () in
          let sh = Sharded.create ~shards ~config ~querylog:ql store in
          check int "shards" shards (Sharded.shard_count sh);
          ignore (Sharded.run sh (parse f));
          match Obs.Querylog.records ql with
          | [ r ] -> r.Obs.Querylog.segments_scanned
          | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)
        in
        List.iter
          (fun f ->
            let whole = scans 1 f in
            check bool "scans recorded" true (whole <> []);
            check (list (pair string int)) f whole (scans 2 f))
          [ q_train; "(exists x . present(x)) until seg.mood = \"tense\"" ]);
    test_case "explain renders per-shard rows and timings" `Quick (fun () ->
        let store = store_of_seed 41 in
        let sh = Sharded.create ~shards:3 store in
        let static = Sharded.explain sh (parse q_train) in
        check bool "names the scatter" true
          (Astring.String.is_infix ~affix:"scatter-gather over" static);
        check bool "one row per shard" true
          (Astring.String.is_infix ~affix:"shard 2:" static);
        let analyzed = Sharded.explain ~analyze:true sh (parse q_train) in
        check bool "analyze carries timings" true
          (Astring.String.is_infix ~affix:"time " analyzed);
        check bool "analyze carries merge entry count" true
          (Astring.String.is_infix ~affix:"merge: " analyzed));
  ]

(* --- the one-shard handle over a context ------------------------------------ *)

let one_shard_tests =
  let open Alcotest in
  let casablanca () = Sharded.of_context (Workload.Casablanca.context ()) in
  [
    test_case "store-less top_k = length, top_k of Query.run" `Quick
      (fun () ->
        let sh = casablanca () in
        let ctx = Workload.Casablanca.context () in
        check int "one level" 1 (Sharded.levels sh);
        check (array int) "offset 0" [| 0 |] (Sharded.offsets sh);
        List.iter
          (fun src ->
            let f = parse src in
            let l = Query.run ctx f in
            List.iter
              (fun k ->
                check bool
                  (Printf.sprintf "%s, k=%d" src k)
                  true
                  (Sharded.top_k sh ~k f = (Sim_list.length l, Topk.top_k l ~k)))
              [ 0; 3; 1000 ])
          [ Workload.Casablanca.query1; "man_woman until moving_train";
            "eventually moving_train" ]);
    test_case "store-less Query 1 reproduces Table 4" `Quick (fun () ->
        let sh = casablanca () in
        check
          (list (pair (testable Simlist.Interval.pp Simlist.Interval.equal)
                   (float 1e-9)))
          "matches the paper" Workload.Casablanca.expected_table4
          (Topk.ranked_intervals
             (Sharded.run_string sh Workload.Casablanca.query1));
        let _, top = Sharded.top_k sh ~k:3 (parse Workload.Casablanca.query1) in
        check (list int) "top-3 ids" [ 1; 2; 3 ] (List.map fst top);
        check (float 1e-9) "best value" 12.382 (Sim.actual (snd (List.hd top))));
    test_case "store-less levels and appends are refused" `Quick (fun () ->
        let sh = casablanca () in
        check_raises "level"
          (Invalid_argument "\"level\" requires a store-backed dataset")
          (fun () -> ignore (Sharded.with_level sh ~level:1));
        check_raises "ingestion"
          (Invalid_argument "ingestion requires a store-backed dataset")
          (fun () -> Sharded.append_segments sh [ Fixtures.shot () ]);
        check int "version" 0 (Sharded.version sh));
    test_case "the handle wraps the context's store without copying" `Quick
      (fun () ->
        let store = Fixtures.two_movie_store () in
        let ctx = Context.of_store store in
        let sh = Sharded.of_context ctx in
        check bool "same store" true
          (match (Sharded.contexts sh).(0).Context.store with
          | Some s -> s == store
          | None -> false);
        let n0 = Sharded.segment_count sh in
        Store.append_segments store [ Fixtures.shot () ];
        check int "a direct append is seen" (n0 + 1) (Sharded.segment_count sh);
        check int "and versioned" (Store.version store) (Sharded.version sh);
        let f = parse q_train in
        check bool "answers as the context does" true
          (Sim_list.equal (Sharded.run sh f)
             (Query.run (Context.without_cache ctx) f)));
    test_case "auto resolves once at the coordinator" `Quick (fun () ->
        let store = store_of_seed 71 in
        let stats = Obs.Stats.create () in
        let sh = Sharded.create ~shards:2 ~stats store in
        check int "two shards" 2 (Sharded.shard_count sh);
        for _ = 1 to 3 do
          List.iter
            (fun q ->
              ignore (Sharded.run ~backend:Query.Auto_backend sh (parse q)))
            [ q_train; q_mood ]
        done;
        let rows = Obs.Stats.backends stats in
        check bool "some backend recorded" true (rows <> []);
        List.iter
          (fun r ->
            check bool
              (Printf.sprintf "row %S is concrete" r.Obs.Stats.backend)
              true
              (r.Obs.Stats.backend <> "auto"))
          rows);
  ]

(* --- ingestion routing ---------------------------------------------------- *)

let shard_versions sh =
  Array.map (fun ctx -> Context.store_version ctx) (Sharded.contexts sh)

(* evaluate over one unsharded store rebuilt from every shard's current
   trees — the oracle any sharded result must match byte for byte *)
let oracle_run sh f =
  let videos =
    List.concat_map
      (fun ctx ->
        match ctx.Context.store with
        | Some s -> Store.current_videos s
        | None -> assert false)
      (Array.to_list (Sharded.contexts sh))
  in
  Query.run (Context.without_cache (Context.of_store (Store.create videos))) f

let ingest_tests =
  let open Alcotest in
  [
    test_case "append_segments routes to one shard; siblings stay warm" `Quick
      (fun () ->
        let store = store_of_seed 61 in
        let m = Obs.Metrics.create () in
        let sh = Sharded.create ~shards:3 ~metrics:m store in
        ignore (Sharded.run_string sh q_mood);
        let builds0 = counter m "picture.index.builds" in
        let before = shard_versions sh in
        let n0 = Sharded.segment_count sh in
        let rng = Workload.Rng.make 62 in
        Sharded.append_segments sh
          [ Workload.Movies.random_meta rng ~object_pool:4 ];
        let after = shard_versions sh in
        let bumped = ref [] in
        Array.iteri
          (fun i v -> if v <> before.(i) then bumped := i :: !bumped)
          after;
        check (list int) "only the last shard bumped"
          [ Sharded.shard_count sh - 1 ]
          !bumped;
        check int "segment count grew" (n0 + 1) (Sharded.segment_count sh);
        (* the owning shard catches up with a delta merge, not a rebuild *)
        let f = parse q_mood in
        let merged = Sharded.run sh f in
        check int "builds stay flat" builds0
          (counter m "picture.index.builds");
        check int "one delta merge" 1
          (counter m "picture.index.delta_merges");
        check bool "byte-equal to the unsharded oracle" true
          (Sim_list.equal merged (oracle_run sh f)));
    test_case "append_video grows the last shard" `Quick (fun () ->
        let store = Fixtures.two_movie_store () in
        let sh = Sharded.create ~shards:2 store in
        let before = shard_versions sh in
        Sharded.append_video sh (Fixtures.western ());
        let after = shard_versions sh in
        check bool "first shard untouched" true (before.(0) = after.(0));
        check int "three videos" 3 (Sharded.video_count sh);
        check int "segments grew by the western's shots" 15
          (Sharded.segment_count sh);
        let offs = Sharded.offsets sh in
        check int "offsets refreshed in place" 6 offs.(1);
        let f = parse q_train in
        check bool "byte-equal to the unsharded oracle" true
          (Sim_list.equal (Sharded.run sh f) (oracle_run sh f)));
    test_case "append to a non-final video of a shard is rejected" `Quick
      (fun () ->
        let sh = Sharded.create ~shards:1 (Fixtures.two_movie_store ()) in
        (try
           Sharded.append_segments ~video:0 sh [ Fixtures.shot () ];
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        (try
           Sharded.append_segments ~video:7 sh [ Fixtures.shot () ];
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        (* video 1 is the corpus's last: accepted *)
        Sharded.append_segments ~video:1 sh [ Fixtures.shot () ];
        check int "appended" 10 (Sharded.segment_count sh));
    test_case "no-op mutations keep every shard warm" `Quick (fun () ->
        let store = store_of_seed 67 in
        let m = Obs.Metrics.create () in
        let sh = Sharded.create ~shards:3 ~metrics:m store in
        let level = Sharded.level sh in
        ignore (Sharded.run_string sh q_mood);
        let builds0 = counter m "picture.index.builds" in
        let before = shard_versions sh in
        Sharded.update_meta sh ~level ~id:1 ~f:(fun x -> x);
        Sharded.remove_attr sh ~level ~id:2 ~name:"no-such-attr";
        Sharded.remove_object sh ~level ~id:3 ~obj:9999;
        check bool "no shard version bumped" true
          (shard_versions sh = before);
        ignore (Sharded.run_string sh q_mood);
        check int "no rebuilds" builds0 (counter m "picture.index.builds"));
  ]

(* --- snapshots ------------------------------------------------------------ *)

let with_tmp f =
  let path = Filename.temp_file "htl_snapshot" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let snapshot_roundtrip_prop (seed, f) =
  let store = store_of_seed seed in
  let sh = Sharded.create ~shards:2 store in
  let outcome g =
    match g () with l -> Ok l | exception Query.Error msg -> Error msg
  in
  let before = outcome (fun () -> Sharded.run sh f) in
  with_tmp (fun path ->
      Sharded.save_snapshot sh path;
      let m = Obs.Metrics.create () in
      let sh2 = Sharded.load_snapshot ~metrics:m path in
      (match (before, outcome (fun () -> Sharded.run sh2 f)) with
      | Ok a, Ok b ->
          if not (Sim_list.equal a b) then
            QCheck.Test.fail_reportf "snapshot changes the result of %s"
              (Htl.Pretty.to_string f)
      | Error _, Error _ -> ()
      | _ ->
          QCheck.Test.fail_reportf
            "snapshot changes the outcome class of %s"
            (Htl.Pretty.to_string f));
      if counter m "picture.index.builds" <> 0 then
        QCheck.Test.fail_reportf
          "loading a snapshot rebuilt an index for %s"
          (Htl.Pretty.to_string f);
      true)

let snapshot_tests =
  let open Alcotest in
  [
    test_case "snapshot bytes are deterministic and load-stable" `Quick
      (fun () ->
        let store = store_of_seed 43 in
        let sh = Sharded.create ~shards:3 store in
        with_tmp (fun p1 ->
            with_tmp (fun p2 ->
                Sharded.save_snapshot sh p1;
                Sharded.save_snapshot sh p2;
                let b1 = read_file p1 in
                check bool "same store, same bytes" true (b1 = read_file p2);
                let sh2 = Sharded.load_snapshot p1 in
                Sharded.save_snapshot sh2 p2;
                check bool "save∘load is byte-stable" true
                  (b1 = read_file p2))));
    test_case "load answers with zero index rebuilds" `Quick (fun () ->
        let store = store_of_seed 47 in
        let sh = Sharded.create ~shards:2 store in
        with_tmp (fun path ->
            Sharded.save_snapshot sh path;
            let m = Obs.Metrics.create () in
            let sh2 = Sharded.load_snapshot ~metrics:m path in
            (* exercise both levels so every preloaded index is hit *)
            ignore (Sharded.run_string sh2 q_mood);
            ignore
              (Sharded.run_string (Sharded.with_level sh2 ~level:1) q_mood);
            check int "picture.index.builds" 0
              (counter m "picture.index.builds");
            check bool "registry hits recorded" true
              (counter m "picture.index.registry_hits" > 0)));
    test_case "snapshots round-trip appended state" `Quick (fun () ->
        let sh = Sharded.create ~shards:2 (Fixtures.two_movie_store ()) in
        Sharded.append_segments sh
          [ Fixtures.shot ~objects:[ Fixtures.john () ] () ];
        Sharded.set_attr sh ~level:(Sharded.level sh) ~id:1 ~name:"mood"
          (Metadata.Value.Str "tense");
        with_tmp (fun p1 ->
            with_tmp (fun p2 ->
                Sharded.save_snapshot sh p1;
                let sh2 = Sharded.load_snapshot p1 in
                check int "leaf count preserved" (Sharded.segment_count sh)
                  (Sharded.segment_count sh2);
                let f = parse q_mood in
                check bool "appended and edited state preserved" true
                  (Sim_list.equal (Sharded.run sh f) (Sharded.run sh2 f));
                Sharded.save_snapshot sh2 p2;
                check bool "save∘load is byte-stable after appends" true
                  (read_file p1 = read_file p2))));
    test_case "garbage is not a snapshot" `Quick (fun () ->
        with_tmp (fun path ->
            write_file path "definitely not a snapshot";
            match Snapshot.load path with
            | _ -> fail "accepted garbage"
            | exception Snapshot.Snapshot_error Snapshot.Not_a_snapshot -> ()));
    test_case "short header is truncated" `Quick (fun () ->
        with_tmp (fun path ->
            write_file path "HTLSNAP\x01";
            match Snapshot.load path with
            | _ -> fail "accepted a bare header"
            | exception
                Snapshot.Snapshot_error
                  (Snapshot.Truncated { expected = 20; got = 8 }) ->
                ()));
    test_case "unknown version is rejected" `Quick (fun () ->
        let sh = Sharded.create (store_of_seed 53) in
        with_tmp (fun path ->
            Sharded.save_snapshot sh path;
            let b = Bytes.of_string (read_file path) in
            Bytes.set b 7 '\x09';
            write_file path (Bytes.to_string b);
            match Snapshot.load path with
            | _ -> fail "accepted version 9"
            | exception
                Snapshot.Snapshot_error (Snapshot.Unsupported_version 9) ->
                ()));
    test_case "truncated payload is rejected with sizes" `Quick (fun () ->
        let sh = Sharded.create (store_of_seed 53) in
        with_tmp (fun path ->
            Sharded.save_snapshot sh path;
            let b = read_file path in
            write_file path (String.sub b 0 (String.length b - 5));
            match Snapshot.load path with
            | _ -> fail "accepted a truncated payload"
            | exception
                Snapshot.Snapshot_error (Snapshot.Truncated { expected; got })
              ->
                check int "expected full size" (String.length b) expected;
                check int "got the short size" (String.length b - 5) got));
    test_case "trailing bytes are corrupt" `Quick (fun () ->
        let sh = Sharded.create (store_of_seed 53) in
        with_tmp (fun path ->
            Sharded.save_snapshot sh path;
            write_file path (read_file path ^ "xx");
            match Snapshot.load path with
            | _ -> fail "accepted trailing bytes"
            | exception Snapshot.Snapshot_error (Snapshot.Corrupt _) -> ()));
    test_case "bit flip fails the checksum" `Quick (fun () ->
        let sh = Sharded.create (store_of_seed 53) in
        with_tmp (fun path ->
            Sharded.save_snapshot sh path;
            let b = Bytes.of_string (read_file path) in
            let mid = 20 + ((Bytes.length b - 20) / 2) in
            Bytes.set b mid
              (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
            write_file path (Bytes.to_string b);
            match Snapshot.load path with
            | _ -> fail "accepted a flipped bit"
            | exception Snapshot.Snapshot_error Snapshot.Checksum_mismatch ->
                ()));
    test_case "valid checksum over a malformed payload is corrupt" `Quick
      (fun () ->
        let sh = Sharded.create (store_of_seed 53) in
        with_tmp (fun path ->
            Sharded.save_snapshot sh path;
            let b = Bytes.of_string (read_file path) in
            (* claim 2^63-ish shards: the count varint overruns the
               payload, but the checksum is made honest again *)
            Bytes.set b 20 '\xFF';
            let payload =
              Bytes.sub_string b 20 (Bytes.length b - 20)
            in
            Bytes.set_int32_le b 16
              (Int32.of_int (Storage.Binio.crc32 payload));
            write_file path (Bytes.to_string b);
            match Snapshot.load path with
            | _ -> fail "accepted a malformed payload"
            | exception Snapshot.Snapshot_error (Snapshot.Corrupt _) -> ()));
  ]

let suites =
  [
    ("shard.unit", unit_tests);
    ("shard.one", one_shard_tests);
    ("shard.ingest", ingest_tests);
    ( "shard.differential",
      [
        Helpers.qtest ~count:30 "sharded = unsharded (type 1)"
          (sharded_store_prop ~videos:4)
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:30 "sharded = unsharded (type 2)"
          sharded_store_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:30 "sharded = unsharded (conjunctive)"
          sharded_store_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:30 "sharded = unsharded (mixed)"
          sharded_store_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Helpers.qtest ~count:200 "merged_top_k = top_k of the merged list"
          gather_prop arb_shard_parts;
        Helpers.qtest ~count:300
          "gathers coalesce values abutting across shards" gather_prop
          arb_abutting_parts;
        Helpers.qtest ~count:15 "sharded top_k (type 1) = length, top_k of run"
          sharded_top_k_prop
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:15 "sharded top_k (type 2) = length, top_k of run"
          sharded_top_k_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:15 "sharded top_k (conjunctive) = length, top_k of run"
          sharded_top_k_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:15 "sharded top_k (mixed) = length, top_k of run"
          sharded_top_k_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
      ] );
    ( "shard.snapshot",
      snapshot_tests
      @ [
          Helpers.qtest ~count:25 "save/load preserves every result"
            snapshot_roundtrip_prop
            (Helpers.arb_store_formula Helpers.gen_closed_formula);
        ] );
  ]
