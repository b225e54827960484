(* Tests for the memoizing evaluation layer: hash-consing, the store
   version stamp, cache invalidation on annotation edits, LRU eviction
   under a tiny capacity, and the observability counters. *)

open Engine
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table
module Store = Video_model.Store

let parse = Htl.Parser.formula_of_string
let sim_list = Alcotest.testable Sim_list.pp Sim_list.equal

(* --- hash-consing --------------------------------------------------------- *)

let hcons_tests =
  let open Alcotest in
  [
    test_case "structurally equal formulas intern to the same id" `Quick
      (fun () ->
        let f () = parse "p1 and eventually (p2 until p3)" in
        check int "same id" (Htl.Hcons.intern_id (f ()))
          (Htl.Hcons.intern_id (f ()));
        check bool "equal_ast" true (Htl.Hcons.equal_ast (f ()) (f ())));
    test_case "distinct formulas intern to distinct ids" `Quick (fun () ->
        check bool "different" false
          (Htl.Hcons.intern_id (parse "p1 and p2")
          = Htl.Hcons.intern_id (parse "p2 and p1"));
        check bool "binder name matters" false
          (Htl.Hcons.intern_id (parse "exists x . present(x)")
          = Htl.Hcons.intern_id (parse "exists y . present(y)")));
    test_case "shared subtrees intern once" `Quick (fun () ->
        let before = Htl.Hcons.interned_count () in
        let sub = "(p1 until p2)" in
        ignore
          (Htl.Hcons.intern (parse (sub ^ " and eventually " ^ sub)));
        let grown = Htl.Hcons.interned_count () - before in
        (* p1, p2, the until, the eventually and the and — never two
           copies of the shared until subtree *)
        check bool "at most 5 new nodes" true (grown <= 5));
    test_case "handles are O(1)-comparable and hash-stable" `Quick (fun () ->
        let h1 = Htl.Hcons.intern (parse "p1 until p2") in
        let h2 = Htl.Hcons.intern (parse "p1 until p2") in
        check bool "equal" true (Htl.Hcons.equal h1 h2);
        check int "compare 0" 0 (Htl.Hcons.compare h1 h2);
        check int "same hash" (Htl.Hcons.hash h1) (Htl.Hcons.hash h2));
  ]

(* --- a tiny editable store ------------------------------------------------- *)

let meta_with ?(objects = []) ?(attrs = []) () =
  Metadata.Seg_meta.make ~objects ~attrs ()

let man ~id = Metadata.Entity.make ~id ~otype:"man" ()
let train ~id = Metadata.Entity.make ~id ~otype:"train" ()

let small_store () =
  let shots =
    [
      meta_with ~objects:[ man ~id:1 ] ();
      meta_with ~attrs:[ ("mood", Metadata.Value.Str "calm") ] ();
      meta_with ~objects:[ man ~id:1 ] ();
    ]
  in
  Store.of_video (Video_model.Video.two_level ~title:"edit-me" shots)

let q_train = "exists x . (present(x) and type(x) = \"train\")"

(* --- version stamp --------------------------------------------------------- *)

let version_tests =
  let open Alcotest in
  [
    test_case "fresh store has version 0" `Quick (fun () ->
        check int "version" 0 (Store.version (small_store ())));
    test_case "every mutation bumps the version" `Quick (fun () ->
        let s = small_store () in
        Store.add_object s ~level:2 ~id:2 (train ~id:9);
        check int "add_object" 1 (Store.version s);
        Store.remove_object s ~level:2 ~id:2 ~obj:9;
        check int "remove_object" 2 (Store.version s);
        Store.set_attr s ~level:2 ~id:1 ~name:"mood"
          (Metadata.Value.Str "tense");
        check int "set_attr" 3 (Store.version s);
        Store.remove_attr s ~level:2 ~id:1 ~name:"mood";
        check int "remove_attr" 4 (Store.version s);
        Store.update_meta s ~level:2 ~id:1 ~f:(fun m ->
            { m with Metadata.Seg_meta.attrs = [ ("x", Metadata.Value.Int 1) ] });
        check int "update_meta (effective)" 5 (Store.version s));
    test_case "no-op mutations are version-neutral" `Quick (fun () ->
        let s = small_store () in
        Store.update_meta s ~level:2 ~id:1 ~f:(fun m -> m);
        check int "identity update_meta" 0 (Store.version s);
        Store.update_meta s ~level:2 ~id:2 ~f:(fun m ->
            { m with Metadata.Seg_meta.attrs = m.Metadata.Seg_meta.attrs });
        check int "structurally equal rewrite" 0 (Store.version s);
        Store.remove_attr s ~level:2 ~id:1 ~name:"no-such-attr";
        check int "remove_attr of absent name" 0 (Store.version s);
        Store.remove_object s ~level:2 ~id:1 ~obj:999;
        check int "remove_object of absent object" 0 (Store.version s);
        Store.set_attr s ~level:2 ~id:2 ~name:"mood"
          (Metadata.Value.Str "calm");
        check int "set_attr to the current value" 0 (Store.version s));
    test_case "no-op mutations keep caches and indexes warm" `Quick (fun () ->
        let s = small_store () in
        let m = Obs.Metrics.create () in
        let ctx = Context.with_metrics (Context.of_store s) m in
        ignore (Query.run_string ctx q_train);
        let builds () =
          match List.assoc_opt "picture.index.builds" (Obs.Metrics.snapshot m)
          with
          | Some (Obs.Metrics.Counter n) -> n
          | _ -> 0
        in
        let builds0 = builds () in
        check bool "warmed" true (builds0 > 0);
        Store.update_meta s ~level:2 ~id:1 ~f:(fun x -> x);
        Store.remove_attr s ~level:2 ~id:2 ~name:"no-such-attr";
        Store.remove_object s ~level:2 ~id:3 ~obj:999;
        let hits_before =
          match Query.cache_stats ctx with
          | Some st -> st.Cache.hits
          | None -> Alcotest.fail "no cache"
        in
        ignore (Query.run_string ctx q_train);
        check int "no index rebuild" builds0 (builds ());
        match Query.cache_stats ctx with
        | Some st ->
            check bool "pure cache hits" true (st.Cache.hits > hits_before)
        | None -> Alcotest.fail "no cache");
    test_case "remove_object drops its relationships too" `Quick (fun () ->
        let s = small_store () in
        Store.add_object s ~level:2 ~id:1 (train ~id:9);
        Store.update_meta s ~level:2 ~id:1 ~f:(fun m ->
            {
              m with
              Metadata.Seg_meta.relationships =
                [ Metadata.Relationship.make "near" [ 1; 9 ] ];
            });
        Store.remove_object s ~level:2 ~id:1 ~obj:9;
        let m = Store.meta s ~level:2 ~id:1 in
        check int "relationships gone" 0
          (List.length m.Metadata.Seg_meta.relationships);
        check bool "man stays" true (Metadata.Seg_meta.present m 1));
  ]

(* --- invalidation: a query after a mutation never sees stale tables -------- *)

let fresh_eval store q =
  Query.run_string (Context.without_cache (Context.of_store store)) q

let invalidation_tests =
  let open Alcotest in
  [
    test_case "annotation add is visible through a warm cache" `Quick
      (fun () ->
        let s = small_store () in
        let ctx = Context.of_store s in
        let before = Query.run_string ctx q_train in
        check sim_list "agrees with fresh eval" (fresh_eval s q_train) before;
        (* warm the cache thoroughly, then edit *)
        ignore (Query.run_string ctx q_train);
        Store.add_object s ~level:2 ~id:2 (train ~id:9);
        let after = Query.run_string ctx q_train in
        check sim_list "recomputed, not stale" (fresh_eval s q_train) after;
        check bool "shot 2 scores higher once a train is present" true
          (Sim_list.value_at after 2 > Sim_list.value_at before 2));
    test_case "annotation remove is visible through a warm cache" `Quick
      (fun () ->
        let s = small_store () in
        let ctx = Context.of_store s in
        Store.add_object s ~level:2 ~id:2 (train ~id:9);
        let before = Query.run_string ctx q_train in
        ignore (Query.run_string ctx q_train);
        Store.remove_object s ~level:2 ~id:2 ~obj:9;
        let after = Query.run_string ctx q_train in
        check sim_list "recomputed, not stale" (fresh_eval s q_train) after;
        check bool "shot 2 scores lower once the train is gone" true
          (Sim_list.value_at after 2 < Sim_list.value_at before 2));
    test_case "segment attribute edits invalidate too" `Quick (fun () ->
        let s = small_store () in
        let ctx = Context.of_store s in
        let q = "seg.mood = \"tense\"" in
        ignore (Query.run_string ctx q);
        Store.set_attr s ~level:2 ~id:3 ~name:"mood"
          (Metadata.Value.Str "tense");
        let after = Query.run_string ctx q in
        check sim_list "recomputed, not stale" (fresh_eval s q) after;
        check bool "matches the edited shot" false (Sim_list.is_empty after));
    test_case "subformulas shared across queries hit the cache" `Quick
      (fun () ->
        let ctx = Context.of_store (small_store ()) in
        let q1 = "eventually (" ^ q_train ^ ")" in
        let q2 = "(exists x . (present(x) and type(x) = \"man\")) and \
                  eventually (" ^ q_train ^ ")" in
        ignore (Query.run_string ctx q1);
        let after_q1 =
          match Query.cache_stats ctx with
          | Some s -> s.Cache.hits
          | None -> Alcotest.fail "no cache"
        in
        ignore (Query.run_string ctx q2);
        (match Query.cache_stats ctx with
        | Some s ->
            check bool "q2 reused q1's eventually-subtree" true
              (s.Cache.hits > after_q1)
        | None -> Alcotest.fail "no cache"));
  ]

(* --- eviction under a tiny capacity ---------------------------------------- *)

let eviction_tests =
  let open Alcotest in
  [
    test_case "capacity-1 cache stays correct under eviction churn" `Quick
      (fun () ->
        let s = small_store () in
        let ctx = Context.of_store ~cache:(Cache.create ~capacity:1 ()) s in
        let queries =
          [
            q_train;
            "exists x . (present(x) and type(x) = \"man\")";
            "eventually (exists x . present(x))";
            "seg.mood = \"calm\"";
          ]
        in
        (* several passes so hits, misses and evictions all occur *)
        for _ = 1 to 3 do
          List.iter
            (fun q ->
              check sim_list q (fresh_eval s q) (Query.run_string ctx q))
            queries
        done;
        match Query.cache_stats ctx with
        | Some st ->
            check bool "evictions happened" true (st.Cache.evictions > 0);
            check int "never over capacity" 1 st.Cache.entries
        | None -> Alcotest.fail "no cache");
    test_case "LRU evicts the least recently used key" `Quick (fun () ->
        let c = Cache.create ~capacity:2 () in
        let extents = Simlist.Extent.single 4 in
        let key i = Cache.key ~formula:i ~level:1 ~extents ~domains:[] in
        let table v =
          Sim_table.of_sim_list
            (Sim_list.of_entries ~max:1.
               [ (Simlist.Interval.make 1 1, v) ])
        in
        let probe k =
          match Cache.find c k ~version:0 ~valid:(fun ~stamp:_ -> true) with
          | Cache.Hit t | Cache.Survived t -> Some t
          | Cache.Stale | Cache.Absent -> None
        in
        Cache.add c (key 1) ~version:0 (table 0.25);
        Cache.add c (key 2) ~version:0 (table 0.5);
        ignore (probe (key 1));
        Cache.add c (key 3) ~version:0 (table 0.75);
        check bool "recently used key 1 survives" true
          (Option.is_some (probe (key 1)));
        check bool "LRU key 2 evicted" true (Option.is_none (probe (key 2)));
        let st = Cache.stats c in
        check int "one eviction" 1 st.Cache.evictions);
    test_case "entries survive or drop by the validity predicate" `Quick
      (fun () ->
        let c = Cache.create () in
        let extents = Simlist.Extent.single 4 in
        let t =
          Sim_table.of_sim_list
            (Sim_list.of_entries ~max:1. [ (Simlist.Interval.make 1 2, 1.) ])
        in
        let k = Cache.key ~formula:7 ~level:1 ~extents ~domains:[] in
        Cache.add c k ~version:0 t;
        (* same version: a plain hit, the predicate is not consulted *)
        (match
           Cache.find c k ~version:0 ~valid:(fun ~stamp:_ ->
               Alcotest.fail "predicate consulted on a version-equal hit")
         with
        | Cache.Hit _ -> ()
        | _ -> Alcotest.fail "expected Hit");
        (* newer version, benign changes: survives and is restamped *)
        let seen = ref (-1) in
        (match
           Cache.find c k ~version:3 ~valid:(fun ~stamp ->
               seen := stamp;
               true)
         with
        | Cache.Survived _ -> ()
        | _ -> Alcotest.fail "expected Survived");
        check int "predicate saw the original stamp" 0 !seen;
        check int "one survival" 1 (Cache.survivals c);
        (* restamped: probing at version 3 again is a plain hit *)
        (match
           Cache.find c k ~version:3 ~valid:(fun ~stamp:_ ->
               Alcotest.fail "restamp not applied")
         with
        | Cache.Hit _ -> ()
        | _ -> Alcotest.fail "expected Hit after restamp");
        (* invalidating change: dropped on probe, then absent *)
        (match Cache.find c k ~version:4 ~valid:(fun ~stamp:_ -> false) with
        | Cache.Stale -> ()
        | _ -> Alcotest.fail "expected Stale");
        check int "one stale drop" 1 (Cache.stale_drops c);
        (match Cache.find c k ~version:4 ~valid:(fun ~stamp:_ -> true) with
        | Cache.Absent -> ()
        | _ -> Alcotest.fail "expected Absent after the drop");
        (* different extent partition is a different key *)
        Cache.add c k ~version:4 t;
        match
          Cache.find c
            (Cache.key ~formula:7 ~level:1
               ~extents:(Simlist.Extent.of_lengths [ 2; 2 ])
               ~domains:[])
            ~version:4
            ~valid:(fun ~stamp:_ -> true)
        with
        | Cache.Absent -> ()
        | _ -> Alcotest.fail "expected other extents to miss");
  ]

(* --- extent-scoped survival across appends ---------------------------------- *)

let fresh_eval_at store ~level q =
  let ctx =
    Context.with_level
      (Context.without_cache (Context.of_store store))
      ~level
      ~extents:(Store.extents_at store ~level)
  in
  Query.run_string ctx q

let survival_tests =
  let open Alcotest in
  [
    test_case "appended segments are visible to a tracked context" `Quick
      (fun () ->
        let s = small_store () in
        let ctx = Context.of_store s in
        ignore (Query.run_string ctx q_train);
        Store.append_segments s [ meta_with ~objects:[ train ~id:9 ] () ];
        let after = Query.run_string ctx q_train in
        check sim_list "agrees with fresh eval" (fresh_eval s q_train) after;
        check bool "the appended shot scores" true
          (Sim_list.value_at after 4 > 0.));
    test_case "leaf appends keep non-descending upper-level entries warm"
      `Quick (fun () ->
        let s = small_store () in
        let ctx =
          Context.with_level (Context.of_store s) ~level:1
            ~extents:(Store.extents_at s ~level:1)
        in
        let q = "seg.kind = \"movie\"" in
        ignore (Query.run_string ctx q);
        let c =
          match Context.cache ctx with
          | Some c -> c
          | None -> Alcotest.fail "no cache"
        in
        let surv0 = Cache.survivals c in
        (* the append bumps the version, but touches only level 2: the
           level-1 entry reads nothing an append can change *)
        Store.append_segments s [ meta_with () ];
        check sim_list "still correct" (fresh_eval_at s ~level:1 q)
          (Query.run_string ctx q);
        check bool "entry survived the version bump" true
          (Cache.survivals c > surv0);
        check int "nothing dropped" 0 (Cache.stale_drops c));
    test_case "leaf appends invalidate descending entries" `Quick (fun () ->
        let s = small_store () in
        let ctx =
          Context.with_level (Context.of_store s) ~level:1
            ~extents:(Store.extents_at s ~level:1)
        in
        let q = "at next level (eventually (" ^ q_train ^ "))" in
        ignore (Query.run_string ctx q);
        let c =
          match Context.cache ctx with
          | Some c -> c
          | None -> Alcotest.fail "no cache"
        in
        Store.append_segments s [ meta_with ~objects:[ train ~id:9 ] () ];
        let after = Query.run_string ctx q in
        check sim_list "recomputed over the appended leaf"
          (fresh_eval_at s ~level:1 q) after;
        check bool "descending entries dropped" true (Cache.stale_drops c > 0));
    test_case "a result racing an append is filed under the older version"
      `Quick (fun () ->
        let s = small_store () in
        let ctx = Context.of_store ~level:1 s in
        let q = "at next level (eventually (" ^ q_train ^ "))" in
        let f = parse q in
        (* the race, replayed in order: the evaluation takes its stamp
           and computes over the old store, an append lands, then the
           result is inserted *)
        let stamp = Context.cache_stamp ctx f in
        let before = Query.run (Context.without_cache ctx) f in
        Store.append_segments s [ meta_with ~objects:[ train ~id:9 ] () ];
        Context.cache_add ctx stamp (Sim_table.of_sim_list before);
        let c =
          match Context.cache ctx with
          | Some c -> c
          | None -> Alcotest.fail "no cache"
        in
        check bool "the next probe misses" true
          (Option.is_none
             (Context.cache_find ctx f (Context.cache_stamp ctx f)));
        check int "dropped as stale" 1 (Cache.stale_drops c);
        let after = Query.run ctx f in
        check sim_list "re-run equals a from-scratch store"
          (fresh_eval_at s ~level:1 q) after;
        check bool "the append changed the answer" false
          (Sim_list.equal before after));
    test_case "edits at the leaf keep upper-level entries warm" `Quick
      (fun () ->
        let s = small_store () in
        let ctx =
          Context.with_level (Context.of_store s) ~level:1
            ~extents:(Store.extents_at s ~level:1)
        in
        let q = "seg.kind = \"movie\"" in
        ignore (Query.run_string ctx q);
        let c =
          match Context.cache ctx with
          | Some c -> c
          | None -> Alcotest.fail "no cache"
        in
        let surv0 = Cache.survivals c in
        Store.set_attr s ~level:2 ~id:1 ~name:"mood"
          (Metadata.Value.Str "tense");
        ignore (Query.run_string ctx q);
        check bool "survived the deeper edit" true (Cache.survivals c > surv0));
  ]

(* --- counters -------------------------------------------------------------- *)

let counter_tests =
  let open Alcotest in
  [
    test_case "hits/misses/evictions are observable from the Query API"
      `Quick (fun () ->
        let ctx = Context.of_store (small_store ()) in
        ignore (Query.run_string ctx q_train);
        (match Query.cache_stats ctx with
        | Some st ->
            check bool "cold run misses" true (st.Cache.misses > 0);
            check int "cold run never hits" 0 st.Cache.hits
        | None -> Alcotest.fail "no cache");
        ignore (Query.run_string ctx q_train);
        (match Query.cache_stats ctx with
        | Some st -> check bool "warm run hits" true (st.Cache.hits > 0)
        | None -> Alcotest.fail "no cache");
        Query.reset_cache_stats ctx;
        match Query.cache_stats ctx with
        | Some st ->
            check int "reset hits" 0 st.Cache.hits;
            check int "reset misses" 0 st.Cache.misses;
            check bool "entries survive a stats reset" true (st.Cache.entries > 0)
        | None -> Alcotest.fail "no cache");
    test_case "without_cache reports no stats and stays correct" `Quick
      (fun () ->
        let s = small_store () in
        let ctx = Context.without_cache (Context.of_store s) in
        check bool "no stats" true (Option.is_none (Query.cache_stats ctx));
        check sim_list "same answer" (fresh_eval s q_train)
          (Query.run_string ctx q_train));
  ]

(* --- resident words ------------------------------------------------------------- *)

type cache_op =
  | Add of int * int * int  (* key, entries, bindings *)
  | Probe of int
  | Drop of int  (* probe at a newer version that invalidates *)
  | Clear

let gen_cache_ops =
  let open QCheck.Gen in
  let key = int_bound 5 in
  list_size (int_range 1 40)
    (frequency
       [
         (6, map3 (fun k n b -> Add (k, n, b)) key (int_bound 20) (int_bound 2));
         (3, map (fun k -> Probe k) key);
         (2, map (fun k -> Drop k) key);
         (1, return Clear);
       ])

let print_cache_op = function
  | Add (k, n, b) -> Printf.sprintf "add %d (%d entries, %d bindings)" k n b
  | Probe k -> Printf.sprintf "probe %d" k
  | Drop k -> Printf.sprintf "drop %d" k
  | Clear -> "clear"

(* a table of [b] one-binding rows, each with an [n]-entry list *)
let sized_table n b =
  let list =
    Sim_list.of_entries ~max:1.
      (List.init n (fun i -> (Simlist.Interval.point (2 * i + 1), 1.)))
  in
  if b = 0 then Sim_table.of_sim_list list
  else
    Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[] ~max:1.
      (List.init b (fun i -> { Sim_table.objs = [ ("x", i) ]; attrs = []; list }))

let words_tests =
  [
    Helpers.qtest ~count:200 "the words gauge is the sum over live entries"
      (fun ops ->
        let c = Cache.create ~capacity:3 () in
        let extents = Simlist.Extent.single 64 in
        let key i = Cache.key ~formula:i ~level:1 ~extents ~domains:[] in
        let version = ref 0 in
        let live_words () =
          List.fold_left
            (fun n i ->
              match
                Cache.find c (key i) ~version:!version
                  ~valid:(fun ~stamp:_ -> true)
              with
              | Cache.Hit t | Cache.Survived t -> n + Sim_table.words t
              | Cache.Stale | Cache.Absent -> n)
            0 (List.init 6 Fun.id)
        in
        List.for_all
          (fun op ->
            (match op with
            | Add (k, n, b) -> Cache.add c (key k) ~version:!version (sized_table n b)
            | Probe k ->
                ignore
                  (Cache.find c (key k) ~version:!version
                     ~valid:(fun ~stamp:_ -> true))
            | Drop k ->
                incr version;
                ignore
                  (Cache.find c (key k) ~version:!version
                     ~valid:(fun ~stamp:_ -> false))
            | Clear -> Cache.clear c);
            let gauge = (Cache.stats c).Cache.words in
            gauge = live_words ())
          ops)
      (QCheck.make ~print:(QCheck.Print.list print_cache_op) gen_cache_ops);
    Alcotest.test_case "a table's words: 3 per list entry, fixed costs per row"
      `Quick (fun () ->
        (* a row list's boxed maximum (2) is counted with the table's *)
        Alcotest.(check int) "closed table" (8 + 7 + (3 * 5) + 6)
          (Sim_table.words (sized_table 5 0));
        (* the two rows share one list: it is counted once *)
        Alcotest.(check int) "two one-binding rows"
          (8 + 3 + (2 * (7 + 6)) + (3 * 5) + 6)
          (Sim_table.words (sized_table 5 2)));
    Helpers.qtest ~count:100 "every table weighs more than 0 words, empty ones too"
      (fun (n, b) ->
        (* a cached empty result is not free: the cache's word budget
           counts it like any other entry *)
        let empty cols =
          Sim_table.create ~obj_cols:cols ~attr_cols:[] ~max:1. []
        in
        List.for_all
          (fun t -> Sim_table.words t > 0)
          [ sized_table n b; empty []; empty [ "x" ];
            Sim_table.of_sim_list (Sim_list.empty ~max:1.) ])
      QCheck.(pair (int_bound 20) (int_bound 3));
    Alcotest.test_case "lists shared by join padding are counted once" `Quick
      (fun () ->
        (* join results share binding pairs, binding-list tails and the
           boxed maximum between rows; counting them per row priced the
           until body's table above everything it reaches *)
        List.iter
          (fun (what, store) ->
            let ctx = Context.without_cache (Context.of_store store) in
            List.iter
              (fun q ->
                let body = Direct.eval ctx (parse q) in
                let words = Sim_table.words body
                and reachable = Obj.reachable_words (Obj.repr body) in
                if words > reachable then
                  Alcotest.failf "%s, %s: %d rows, words %d > reachable %d"
                    what q (Sim_table.row_count body) words reachable)
              [ "present(x) until present(y)";
                "present(x) and eventually present(y)" ])
          [
            ("2 videos", Workload.Movies.random_store (Workload.Rng.make 123)
                           ~videos:2 ());
            ("3 levels", Workload.Movies.random_store (Workload.Rng.make 123)
                           ~videos:2 ~levels:3 ());
            ("12 objects", Workload.Movies.random_store (Workload.Rng.make 123)
                             ~videos:2 ~object_pool:12 ());
          ]);
  ]

let suites =
  [
    ("cache.hcons", hcons_tests);
    ("cache.version", version_tests);
    ("cache.invalidation", invalidation_tests);
    ("cache.eviction", eviction_tests);
    ("cache.survival", survival_tests);
    ("cache.counters", counter_tests);
    ("cache.words", words_tests);
  ]
