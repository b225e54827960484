(* Tests for the §5 future-work extensions: alternative similarity
   functions and the exact-semantics fallback for general formulas (join
   order is covered by the planned = written differential in
   test_planner.ml). *)

open Engine
module Sim_list = Simlist.Sim_list
module Interval = Simlist.Interval

let iv = Interval.make
let parse = Htl.Parser.formula_of_string
let sim_list = Alcotest.testable Sim_list.pp Sim_list.equal

let ctx_of ?conj_mode lists =
  Context.of_tables ?conj_mode ~n:20
    (List.map
       (fun (name, l) -> (name, Simlist.Sim_table.of_sim_list l))
       lists)

let two_lists =
  [
    ("p1", Sim_list.of_entries ~max:4. [ (iv 1 5, 2.) ]);
    ("p2", Sim_list.of_entries ~max:8. [ (iv 4 8, 8.) ]);
  ]

let conj_mode_tests =
  let open Alcotest in
  [
    test_case "weighted sum is the default" `Quick (fun () ->
        let r = Query.run_string (ctx_of two_lists) "p1 and p2" in
        check (float 1e-9) "overlap" 10. (Sim_list.value_at r 4);
        check (float 1e-9) "p1 only" 2. (Sim_list.value_at r 2));
    test_case "min fraction" `Quick (fun () ->
        let ctx = ctx_of ~conj_mode:Sim_list.Min_fraction two_lists in
        let r = Query.run_string ctx "p1 and p2" in
        (* fractions: p1 = 0.5, p2 = 1.0 -> min 0.5 of max 12 *)
        check (float 1e-9) "overlap" 6. (Sim_list.value_at r 4);
        (* one side absent -> 0 under min *)
        check (float 1e-9) "p1 only" 0. (Sim_list.value_at r 2);
        check (float 0.) "max" 12. (Sim_list.max_sim r));
    test_case "product fraction" `Quick (fun () ->
        let ctx = ctx_of ~conj_mode:Sim_list.Product_fraction two_lists in
        let r = Query.run_string ctx "p1 and p2" in
        check (float 1e-9) "overlap" 6. (Sim_list.value_at r 4);
        check (float 1e-9) "p1 only" 0. (Sim_list.value_at r 2));
    test_case "modes agree on exact matches" `Quick (fun () ->
        let exact =
          [
            ("p1", Sim_list.of_entries ~max:4. [ (iv 2 3, 4.) ]);
            ("p2", Sim_list.of_entries ~max:8. [ (iv 2 3, 8.) ]);
          ]
        in
        List.iter
          (fun mode ->
            let r =
              Query.run_string (ctx_of ~conj_mode:mode exact) "p1 and p2"
            in
            check (float 1e-9) "full" 12. (Sim_list.value_at r 2))
          [ Sim_list.Weighted_sum; Sim_list.Min_fraction; Sim_list.Product_fraction ]);
    Helpers.qtest ~count:50 "min-fraction conjunction matches the oracle"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let n = 10 + Workload.Rng.int rng 30 in
        let base =
          Workload.Synthetic.context_with_atoms ~seed:(seed + 3) ~n
            ~selectivity:0.4 [ "p1"; "p2"; "p3" ]
        in
        let ctx =
          Context.with_fresh_cache
            { base with Context.conj_mode = Sim_list.Min_fraction }
        in
        let f = parse "p1 and p2 and eventually p3" in
        let oracle = Reference.similarity_over_level ctx f in
        let engine = Sim_list.to_dense ~n (Query.run ctx f) in
        Array.for_all2
          (fun s v -> Float.abs (Simlist.Sim.actual s -. v) < 1e-9)
          oracle engine)
      (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.int);
    (* The parser is right-associative, so the chain below holds the
       non-temporal unit [present(x) and speed(x) = 10]: one weighted-sum
       picture scan in the reference semantics.  A store context must
       score it whole, not split it into atoms combined under the
       conjunction mode. *)
    Helpers.qtest ~count:30
      "non-temporal sub-conjunction stays one unit under every mode"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store =
          Workload.Movies.random_store rng ~videos:2 ~branching:4
            ~object_pool:4 ()
        in
        let f =
          parse
            "exists x . eventually(type(x) = \"train\") and present(x) and \
             speed(x) = 10"
        in
        List.for_all
          (fun conj_mode ->
            let ctx = Context.of_store ~conj_mode store in
            let oracle = Reference.similarity_over_level ctx f in
            let engine =
              Sim_list.to_dense ~n:(Array.length oracle) (Query.run ctx f)
            in
            Array.for_all2
              (fun s v -> Float.abs (Simlist.Sim.actual s -. v) < 1e-9)
              oracle engine)
          [ Sim_list.Weighted_sum; Sim_list.Min_fraction; Sim_list.Product_fraction ])
      (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.int);
    test_case "SQL refuses a mode it does not implement; auto answers direct"
      `Quick (fun () ->
        (* the translation sums ([sql_and]): under min-fraction it would
           answer {max=12; [1,5]:10 [6,8]:8} *)
        let src = "p1 and eventually p2" in
        let stats = Obs.Stats.create () in
        let ctx =
          Context.of_tables ~conj_mode:Sim_list.Min_fraction ~stats ~n:20
            (List.map
               (fun (name, l) -> (name, Simlist.Sim_table.of_sim_list l))
               two_lists)
        in
        (match Query.run_string ~backend:Query.Sql_backend_choice ctx src with
        | r -> failf "SQL answered %a" Sim_list.pp r
        | exception Query.Error _ -> ());
        (* observed latencies that favour SQL must not pick it either *)
        let fingerprint = Htl.Hcons.intern_id (parse src) in
        List.iter
          (fun (backend, latency_s) ->
            Obs.Stats.record_query stats ~fingerprint
              ~formula:(fun () -> src)
              ~backend ~latency_s ~error:false)
          [ ("direct", 1.); ("sql", 1e-6) ];
        let direct = Sim_list.of_entries ~max:12. [ (iv 1 5, 6.) ] in
        check sim_list "direct" direct (Query.run_string ctx src);
        check sim_list "auto" direct
          (Query.run_string ~backend:Query.Auto_backend ctx src);
        check string "auto resolves to direct" "direct"
          (Query.explain ~backend:Query.Auto_backend ctx (parse src))
            .Explain.backend);
  ]

let fallback_tests =
  let open Alcotest in
  [
    test_case "supported formulas use the similarity engine" `Quick (fun () ->
        let store = Fixtures.western_store () in
        let ctx = Context.of_store store in
        let f = parse "exists x . (present(x) and type(x) = \"woman\")" in
        check sim_list "same as run" (Query.run ctx f)
          (Query.run_with_fallback ctx f));
    test_case "negation falls back to boolean similarity" `Quick (fun () ->
        let store = Fixtures.western_store () in
        let ctx = Context.of_store store in
        let f = parse "not (exists x . type(x) = \"man\" or type(x) = \"woman\")" in
        let r = Query.run_with_fallback ctx f in
        check (float 0.) "max is 1" 1. (Sim_list.max_sim r);
        (* shots 3 and 6 have no people *)
        check (float 0.) "shot 3" 1. (Sim_list.value_at r 3);
        check (float 0.) "shot 6" 1. (Sim_list.value_at r 6);
        check (float 0.) "shot 1" 0. (Sim_list.value_at r 1));
    test_case "fallback without a store is an error" `Quick (fun () ->
        let ctx = ctx_of two_lists in
        try
          ignore (Query.run_with_fallback ctx (parse "not p1"));
          fail "expected Query.Error"
        with Query.Error _ -> ());
    test_case "open formulas are rejected" `Quick (fun () ->
        let store = Fixtures.western_store () in
        let ctx = Context.of_store store in
        try
          ignore (Query.run_with_fallback ctx (parse "not present(x)"));
          fail "expected Query.Error"
        with Query.Error _ -> ());
  ]

let browse_tests =
  let open Alcotest in
  [
    test_case "browsing ranks whole videos" `Quick (fun () ->
        let store = Fixtures.two_movie_store () in
        let ranked =
          Browse.rank_videos store
            "at shot level (eventually (exists x . (present(x) and type(x) \
             = \"horse\")))"
        in
        (* only the chase movie has a horse; the western's animals are
           people/trains (partial credit) *)
        match ranked with
        | (idx, title, sim) :: _ ->
            check int "chase first" 1 idx;
            check string "title" "chase" title;
            check (float 1e-9) "exact" 1. (Simlist.Sim.fraction sim)
        | [] -> fail "no results");
    test_case "title browsing" `Quick (fun () ->
        let store = Fixtures.two_movie_store () in
        match Browse.rank_videos store "seg.title = \"western\"" with
        | [ (0, "western", _) ] -> ()
        | other -> failf "unexpected ranking (%d entries)" (List.length other));
    test_case "zero-similarity videos are omitted" `Quick (fun () ->
        let store = Fixtures.two_movie_store () in
        check int "none" 0
          (List.length (Browse.rank_videos store "seg.title = \"nothing\"")));
    test_case "syntax errors raise Browse.Error" `Quick (fun () ->
        let store = Fixtures.two_movie_store () in
        try
          ignore (Browse.rank_videos store "not (");
          fail "expected Browse.Error"
        with Browse.Error _ -> ());
  ]

let suites =
  [
    ("extensions.conj_mode", conj_mode_tests);
    ("extensions.browse", browse_tests);
    ("extensions.fallback", fallback_tests);
  ]
