(* Tests for the retrieval engine: the Casablanca reproduction (Tables
   1-4), the type (1) list algorithms, the general table algorithms, the
   freeze quantifier, level operators, the SQL backend, ranking, and
   property tests against the naive reference oracle. *)

open Engine
module Sim_list = Simlist.Sim_list
module Sim_table = Simlist.Sim_table
module Interval = Simlist.Interval

let iv = Interval.make
let parse = Htl.Parser.formula_of_string
let sim_list = Alcotest.testable Sim_list.pp Sim_list.equal

(* --- Casablanca: the paper's §4.1 test case ------------------------------ *)

let casablanca_tests =
  let open Alcotest in
  [
    test_case "table 3: eventually Moving-Train" `Quick (fun () ->
        let ctx = Workload.Casablanca.context () in
        let r = Query.run_string ctx "eventually moving_train" in
        check sim_list "matches the paper" Workload.Casablanca.expected_table3 r);
    test_case "table 4: Query 1 final list, ranked (direct)" `Quick (fun () ->
        let ctx = Workload.Casablanca.context () in
        let r = Query.run_string ctx Workload.Casablanca.query1 in
        let ranked = Topk.ranked_intervals r in
        check
          (list (pair (testable Interval.pp Interval.equal) (float 1e-9)))
          "matches the paper" Workload.Casablanca.expected_table4 ranked);
    test_case "table 4 via the SQL backend is identical" `Quick (fun () ->
        let ctx = Workload.Casablanca.context () in
        let direct = Query.run_string ctx Workload.Casablanca.query1 in
        let sql =
          Query.run_string ~backend:Query.Sql_backend_choice ctx
            Workload.Casablanca.query1
        in
        check sim_list "both approaches produce identical values" direct sql);
    test_case "top-3 shots of Query 1" `Quick (fun () ->
        let ctx = Workload.Casablanca.context () in
        let top = Query.top_k ctx ~k:3 Workload.Casablanca.query1 in
        check (list int) "ids" [ 1; 2; 3 ] (List.map fst top);
        check (float 1e-9) "best value" 12.382
          (Simlist.Sim.actual (snd (List.hd top))));
    test_case "query over the meta-data reconstruction finds the same shots"
      `Quick (fun () ->
        let store = Workload.Casablanca.store () in
        let ctx = Context.of_store store in
        let r = Query.run_string ctx Workload.Casablanca.store_query1 in
        (* values differ from the paper (our scorer, not SCORE), but the
           exact-match region must rank first *)
        match Topk.ranked_intervals r with
        | (best, _) :: _ ->
            check bool "47-49 or 1-4 rank first (both are exact)" true
              (Interval.lo best = 47 || Interval.lo best = 1)
        | [] -> fail "no results");
  ]

(* --- type (1) fast path --------------------------------------------------- *)

let type1_tests =
  let open Alcotest in
  let ctx_of lists =
    Context.of_tables ~n:20
      (List.map (fun (name, l) -> (name, Sim_table.of_sim_list l)) lists)
  in
  [
    test_case "conjunction of named atoms" `Quick (fun () ->
        let ctx =
          ctx_of
            [
              ("p1", Sim_list.of_entries ~max:4. [ (iv 1 5, 2.) ]);
              ("p2", Sim_list.of_entries ~max:4. [ (iv 4 8, 4.) ]);
            ]
        in
        let r = Query.run_string ctx "p1 and p2" in
        check (float 0.) "max" 8. (Sim_list.max_sim r);
        check (float 0.) "overlap" 6. (Sim_list.value_at r 4);
        check (float 0.) "p1 only" 2. (Sim_list.value_at r 2);
        check (float 0.) "p2 only" 4. (Sim_list.value_at r 7));
    test_case "until with threshold" `Quick (fun () ->
        let ctx =
          ctx_of
            [
              ("p1", Sim_list.of_entries ~max:4. [ (iv 1 5, 3.) ]);
              ("p2", Sim_list.of_entries ~max:9. [ (iv 6 6, 9.) ]);
            ]
        in
        let r = Query.run_string ctx "p1 until p2" in
        (* p1's fraction 0.75 >= 0.5 carries ids 1..5 to p2 at 6 *)
        check sim_list "corridor"
          (Sim_list.of_entries ~max:9. [ (iv 1 6, 9.) ])
          r);
    test_case "next shifts by one" `Quick (fun () ->
        let ctx = ctx_of [ ("p1", Sim_list.of_entries ~max:4. [ (iv 3 3, 4.) ]) ] in
        let r = Query.run_string ctx "next p1" in
        check sim_list "shifted" (Sim_list.of_entries ~max:4. [ (iv 2 2, 4.) ]) r);
    test_case "general formulas are rejected with a reason" `Quick (fun () ->
        let ctx = ctx_of [ ("p1", Sim_list.of_entries ~max:4. [] ) ] in
        (try
           ignore (Query.run_string ctx "not p1");
           fail "expected Query.Error"
         with Query.Error msg ->
           check bool "mentions negation" true
             (String.length msg > 0)));
    test_case "unknown atom names are reported" `Quick (fun () ->
        let ctx = ctx_of [] in
        try
          ignore (Query.run_string ctx "mystery until mystery2");
          fail "expected Query.Error"
        with Query.Error _ -> ());
  ]

(* --- general table algorithms over stores --------------------------------- *)

let direct_tests =
  let open Alcotest in
  [
    test_case "type (2): shared variable across until" `Quick (fun () ->
        (* the SAME man must be present until he fires: checks that join
           on the shared variable distinguishes bindings *)
        let store = Fixtures.western_store () in
        let ctx = Context.of_store store in
        let f =
          parse
            "exists x . (present(x) and name(x) = \"John Wayne\") until \
             fires_at(x, y)"
        in
        (* y free -> general; close it *)
        ignore f;
        let f =
          parse
            "exists x, y . (present(x) and name(x) = \"John Wayne\") until \
             fires_at(x, y)"
        in
        check string "classifies as type 2" "type (2)"
          (Htl.Classify.cls_to_string (Query.classify f));
        let r = Query.run ctx f in
        (* john is present at shots 1,2,4,5 and fires at shot 4.  The
           corridor from shot 1 breaks at shot 3 (john absent), so the
           firing is only reachable from shot 4 itself. *)
        check (float 1e-9) "shot 1 cannot reach the firing" 0.
          (Sim_list.value_at r 1);
        check (float 1e-9) "shot 4" 1. (Sim_list.value_at r 4);
        check (float 1e-9) "shot 5 is past it" 0. (Sim_list.value_at r 5);
        check (float 1e-9) "shot 6 nothing" 0. (Sim_list.value_at r 6));
    test_case "conjunctive: the paper's airplane formula (C)" `Quick (fun () ->
        (* height grows from 100 to 300 across three segments *)
        let plane h =
          Metadata.Entity.make ~id:9 ~otype:"airplane"
            ~attrs:[ ("height", Metadata.Value.Int h) ]
            ()
        in
        let shots =
          [
            Metadata.Seg_meta.make ~objects:[ plane 100 ] ();
            Metadata.Seg_meta.make ~objects:[ plane 300 ] ();
            Metadata.Seg_meta.make ~objects:[ plane 200 ] ();
            Metadata.Seg_meta.make ();
          ]
        in
        let store =
          Video_model.Store.of_video
            (Video_model.Video.two_level ~title:"planes" shots)
        in
        let ctx = Context.of_store store in
        let f =
          parse
            "exists z . (present(z) and type(z) = \"airplane\") and [h <- \
             height(z)] eventually (present(z) and height(z) > h)"
        in
        check string "classifies as conjunctive" "conjunctive"
          (Htl.Classify.cls_to_string (Query.classify f));
        let r = Query.run ctx f in
        (* max = 4 (four weighted conditions); shot 1: plane present,
           height 100, eventually higher (300) => exact 4;
           shot 2: 300 never exceeded => partial (the eventual conjunct
           contributes present only: 2 + 1 = 3);
           shot 3: 200 never exceeded later => 3; shot 4: nothing *)
        check (float 0.) "max" 4. (Sim_list.max_sim r);
        check (float 1e-9) "shot 1 exact" 4. (Sim_list.value_at r 1);
        check (float 1e-9) "shot 2 partial" 3. (Sim_list.value_at r 2);
        check (float 1e-9) "shot 3 partial" 3. (Sim_list.value_at r 3);
        check (float 1e-9) "shot 4 zero" 0. (Sim_list.value_at r 4));
    test_case "a freeze row is one evaluation: until crosses value changes"
      `Quick (fun () ->
        (* the gun speeds up 10, 20, 90: the frozen body holds at every
           shot where the speed is defined, so from shot 1 the until
           corridor runs through shot 2 (another speed) to the fast gun
           at shot 3.  Split into one row per speed value, the corridor
           stopped at the first change and shot 1 scored partially. *)
        let gun speed =
          Metadata.Entity.make ~id:3 ~otype:"gun"
            ~attrs:[ ("speed", Metadata.Value.Int speed) ]
            ()
        in
        let shots =
          [
            Metadata.Seg_meta.make ~objects:[ gun 10 ] ();
            Metadata.Seg_meta.make ~objects:[ gun 20 ] ();
            Metadata.Seg_meta.make ~objects:[ gun 90 ] ();
            Metadata.Seg_meta.make ();
          ]
        in
        let store =
          Video_model.Store.of_video
            (Video_model.Video.two_level ~title:"guns" shots)
        in
        let ctx = Context.without_cache (Context.of_store store) in
        let f =
          parse
            "exists x . (([v <- speed(x)] (eventually (speed(x) >= v))) \
             until (speed(x) > 80 and type(x) = \"gun\"))"
        in
        let oracle = Reference.similarity_over_level ctx f in
        List.iter
          (fun backend ->
            let r = Query.run ~backend ctx f in
            Array.iteri
              (fun i s ->
                check (float 1e-9)
                  (Printf.sprintf "%s at shot %d" (Query.backend_name backend)
                     (i + 1))
                  (Simlist.Sim.actual s)
                  (Sim_list.value_at r (i + 1)))
              oracle;
            check (float 1e-9)
              (Query.backend_name backend ^ ": shot 1 reaches shot 3")
              (Sim_list.value_at r 3) (Sim_list.value_at r 1))
          [ Query.Direct_backend; Query.Sql_backend_choice ]);
    test_case "extended conjunctive: level operator" `Quick (fun () ->
        let store = Fixtures.layered_store () in
        let ctx = Context.of_store store ~level:2 in
        (* asserted on scenes: at the next level (their shots), a train
           eventually appears *)
        let f =
          parse
            "at next level (eventually (exists x . (present(x) and type(x) \
             = \"train\")))"
        in
        check string "classifies as extended" "extended conjunctive"
          (Htl.Classify.cls_to_string (Query.classify f));
        let r = Query.run ctx f in
        (* scene 1 (shots: john, john+gun): partial via type taxonomy;
           scene 2 (train, train, mary): exact *)
        check (float 0.) "max" 2. (Sim_list.max_sim r);
        check (float 1e-9) "scene 2 exact" 2. (Sim_list.value_at r 2);
        check bool "scene 1 partial" true
          (Sim_list.value_at r 1 > 0. && Sim_list.value_at r 1 < 2.));
    test_case "value_table extraction" `Quick (fun () ->
        let store = Fixtures.western_store () in
        let ctx = Context.of_store store in
        let vt = Direct.value_table ctx ~attr:"speed" ~obj:(Some "x") in
        (* the train (id 4) has speed 50 at shot 3 and 80 at shot 5 *)
        let rows = Simlist.Value_table.rows vt in
        check int "two rows" 2 (List.length rows);
        List.iter
          (fun (r : Simlist.Value_table.row) ->
            check (list (pair string int)) "bound to train" [ ("x", 4) ] r.objs)
          rows);
  ]

(* --- SQL backend ----------------------------------------------------------- *)

let sql_tests =
  let open Alcotest in
  [
    test_case "sql backend agrees with direct on a fixed query" `Quick
      (fun () ->
        let ctx =
          Workload.Synthetic.context_with_atoms ~seed:7 ~n:300 [ "p1"; "p2" ]
        in
        List.iter
          (fun q ->
            let direct = Query.run_string ctx q in
            let sql = Query.run_string ~backend:Query.Sql_backend_choice ctx q in
            check sim_list q direct sql)
          [
            "p1 and p2";
            "p1 until p2";
            "next p1";
            "eventually p2";
            "(p1 and eventually p2) until p1";
            "p1 and next (p2 until p1)";
          ]);
    test_case "sql backend respects extents" `Quick (fun () ->
        let extents = Simlist.Extent.of_lengths [ 100; 100; 100 ] in
        let ctx =
          Workload.Synthetic.context_with_atoms ~seed:11 ~n:300 ~extents
            [ "p1"; "p2" ]
        in
        List.iter
          (fun q ->
            let direct = Query.run_string ctx q in
            let sql = Query.run_string ~backend:Query.Sql_backend_choice ctx q in
            check sim_list q direct sql)
          [ "p1 until p2"; "next p1"; "eventually p2" ]);
    test_case "conjunctive formulas run through SQL too" `Quick (fun () ->
        (* the paper: the SQL system handles ANY conjunctive formula *)
        let store = Fixtures.western_store () in
        let ctx = Context.of_store store in
        List.iter
          (fun q ->
            let f = parse q in
            let direct = Query.run ctx f in
            let backend = Sql_backend.create ctx in
            let sql = Sql_backend.run_conjunctive backend ctx f in
            check sim_list q direct sql)
          [
            (* type 2: shared variable across until *)
            "exists x, y . (present(x) and name(x) = \"John Wayne\") until \
             fires_at(x, y)";
            (* conjunctive: freeze *)
            "exists x . (present(x) and type(x) = \"train\") and [v <- \
             speed(x)] eventually (present(x) and speed(x) > v)";
          ]);
    test_case "extended formulas run through SQL (own seq per level)" `Quick
      (fun () ->
        let store = Fixtures.layered_store () in
        let ctx = Context.of_store ~level:1 store in
        List.iter
          (fun q ->
            let direct = Query.run_string ctx q in
            let sql =
              Query.run_string ~backend:Query.Sql_backend_choice ctx q
            in
            check sim_list q direct sql)
          [
            "at scene level (seg.name = \"intro\" and eventually (seg.name \
             = \"trains\"))";
            "at shot level (eventually (exists x . (present(x) and type(x) \
             = \"train\")))";
            "at next level (at next level (exists x . present(x)))";
          ]);
    test_case "the generated script is recorded" `Quick (fun () ->
        let ctx =
          Workload.Synthetic.context_with_atoms ~seed:3 ~n:50 [ "p1"; "p2" ]
        in
        let backend = Sql_backend.create ctx in
        ignore (Sql_backend.run backend ctx (parse "p1 until p2"));
        let script = Sql_backend.last_script backend in
        check bool "several statements" true (List.length script >= 6);
        let contains ~sub s =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        check bool "mentions ROWNUM" true
          (List.exists (contains ~sub:"ROWNUM") script));
  ]

(* --- topk ------------------------------------------------------------------ *)

let topk_tests =
  let open Alcotest in
  [
    test_case "ranked intervals sort by value then start" `Quick (fun () ->
        let l =
          Sim_list.of_entries ~max:10.
            [ (iv 1 2, 5.); (iv 4 4, 9.); (iv 6 8, 5.) ]
        in
        check
          (list (pair (testable Interval.pp Interval.equal) (float 0.)))
          "order"
          [ (iv 4 4, 9.); (iv 1 2, 5.); (iv 6 8, 5.) ]
          (Topk.ranked_intervals l));
    test_case "top_k expands intervals and breaks ties by id" `Quick (fun () ->
        let l =
          Sim_list.of_entries ~max:10. [ (iv 1 3, 5.); (iv 7 7, 9.) ]
        in
        check (list int) "ids" [ 7; 1; 2 ]
          (List.map fst (Topk.top_k l ~k:3)));
    test_case "top_k beyond coverage stops" `Quick (fun () ->
        let l = Sim_list.of_entries ~max:10. [ (iv 2 2, 5.) ] in
        check int "only one" 1 (List.length (Topk.top_k l ~k:5)));
  ]

(* --- property tests against the naive oracle -------------------------------- *)

let check_against_oracle ?(eval = Query.run ?backend:None) ctx f =
  let oracle = Reference.similarity_over_level ctx f in
  let engine = eval ctx f in
  let n = Array.length oracle in
  let dense = Sim_list.to_dense ~n engine in
  let ok = ref true in
  Array.iteri
    (fun i s ->
      if Float.abs (Simlist.Sim.actual s -. dense.(i)) > 1e-9 then ok := false)
    oracle;
  if not !ok then
    QCheck.Test.fail_reportf "engine disagrees with oracle on %s:@.%s@.vs %s"
      (Htl.Pretty.to_string f)
      (String.concat ";"
         (Array.to_list (Array.map (fun s -> string_of_float (Simlist.Sim.actual s)) oracle)))
      (String.concat ";" (Array.to_list (Array.map string_of_float dense)));
  (match Sim_list.entries engine with
  | _ :: _ ->
      if Sim_list.max_sim engine +. 1e-9 < Reference.max_similarity ctx f then
        QCheck.Test.fail_reportf "engine max too small"
  | [] -> ());
  true

let arb_seed name = QCheck.make ~print:(Printf.sprintf "%s seed %d" name) QCheck.Gen.int

let oracle_tests =
  [
    Helpers.qtest ~count:60 "type1 over named tables matches the oracle"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let n = 10 + Workload.Rng.int rng 40 in
        let ctx =
          Workload.Synthetic.context_with_atoms ~seed:(seed + 1) ~n
            ~selectivity:0.4
            [ "p1"; "p2"; "p3" ]
        in
        let rec formula depth =
          let open Htl.Ast in
          if depth = 0 then
            Atom (Rel (Workload.Rng.pick rng [ "p1"; "p2"; "p3" ], []))
          else
            let sub () = formula (depth - 1) in
            match Workload.Rng.int rng 5 with
            | 0 -> And (sub (), sub ())
            | 1 -> Until (sub (), sub ())
            | 2 -> Next (sub ())
            | 3 -> Eventually (sub ())
            | _ -> Atom (Rel (Workload.Rng.pick rng [ "p1"; "p2"; "p3" ], []))
        in
        check_against_oracle ctx (formula 3))
      (arb_seed "tables");
    Helpers.qtest ~count:40 "type1 over random stores matches the oracle"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store =
          Workload.Movies.random_store rng ~videos:2 ~branching:5 ()
        in
        let ctx = Context.of_store store in
        check_against_oracle ctx (Workload.Movies.random_type1_formula rng ~depth:2))
      (arb_seed "stores");
    Helpers.qtest ~count:40 "type2 over random stores matches the oracle"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store =
          Workload.Movies.random_store rng ~videos:1 ~branching:4
            ~object_pool:4 ()
        in
        let ctx = Context.of_store store in
        check_against_oracle ctx (Workload.Movies.random_type2_formula rng ~depth:2))
      (arb_seed "type2");
    Helpers.qtest ~count:40 "conjunctive (freeze) over random stores matches the oracle"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store =
          Workload.Movies.random_store rng ~videos:1 ~branching:4
            ~object_pool:4 ()
        in
        let ctx = Context.of_store store in
        check_against_oracle ctx
          (Workload.Movies.random_conjunctive_formula rng ~depth:2))
      (arb_seed "conjunctive");
    Helpers.qtest ~count:30 "extended (level ops) over random stores matches the oracle"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let levels = 3 + Workload.Rng.int rng 2 in
        let store =
          Workload.Movies.random_store rng ~videos:2 ~levels ~branching:3
            ~object_pool:4 ()
        in
        let ctx = Context.of_store ~level:1 store in
        check_against_oracle ctx
          (Workload.Movies.random_extended_formula rng ~depth:2
             ~max_level:levels))
      (arb_seed "extended");
    Helpers.qtest ~count:30 "sql backend matches direct on random type1"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let n = 10 + Workload.Rng.int rng 60 in
        let ctx =
          Workload.Synthetic.context_with_atoms ~seed:(seed + 13) ~n
            ~selectivity:0.3
            [ "p1"; "p2" ]
        in
        let rec formula depth =
          let open Htl.Ast in
          if depth = 0 then
            Atom (Rel (Workload.Rng.pick rng [ "p1"; "p2" ], []))
          else
            let sub () = formula (depth - 1) in
            match Workload.Rng.int rng 5 with
            | 0 -> And (sub (), sub ())
            | 1 -> Until (sub (), sub ())
            | 2 -> Next (sub ())
            | 3 -> Eventually (sub ())
            | _ -> Atom (Rel (Workload.Rng.pick rng [ "p1"; "p2" ], []))
        in
        let f = formula 3 in
        let direct = Query.run ctx f in
        let sql = Query.run ~backend:Query.Sql_backend_choice ctx f in
        if not (Sim_list.equal direct sql) then
          QCheck.Test.fail_reportf "backends disagree on %s"
            (Htl.Pretty.to_string f)
        else true)
      (arb_seed "sql");
    Helpers.qtest ~count:15 "sql matches direct on random extended formulas"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let levels = 3 in
        let store =
          Workload.Movies.random_store rng ~videos:1 ~levels ~branching:3
            ~object_pool:3 ()
        in
        let ctx = Context.of_store ~level:1 store in
        let f =
          Workload.Movies.random_extended_formula rng ~depth:2
            ~max_level:levels
        in
        let direct = Query.run ctx f in
        let sql = Query.run ~backend:Query.Sql_backend_choice ctx f in
        if not (Sim_list.equal direct sql) then
          QCheck.Test.fail_reportf "sql extended disagrees on %s"
            (Htl.Pretty.to_string f)
        else true)
      (arb_seed "sql-extended");
    Helpers.qtest ~count:20 "sql conjunctive path matches direct on random type2"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store =
          Workload.Movies.random_store rng ~videos:1 ~branching:4
            ~object_pool:3 ()
        in
        let ctx = Context.of_store store in
        let f = Workload.Movies.random_type2_formula rng ~depth:2 in
        let direct = Query.run ctx f in
        let backend = Sql_backend.create ctx in
        let sql = Sql_backend.run_conjunctive backend ctx f in
        if not (Sim_list.equal direct sql) then
          QCheck.Test.fail_reportf "sql conjunctive disagrees on %s"
            (Htl.Pretty.to_string f)
        else true)
      (arb_seed "sql-type2");
    Helpers.qtest ~count:15 "sql conjunctive path matches direct on random freeze formulas"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store =
          Workload.Movies.random_store rng ~videos:1 ~branching:3
            ~object_pool:3 ()
        in
        let ctx = Context.of_store store in
        let f = Workload.Movies.random_conjunctive_formula rng ~depth:2 in
        let direct = Query.run ctx f in
        let backend = Sql_backend.create ctx in
        let sql = Sql_backend.run_conjunctive backend ctx f in
        if not (Sim_list.equal direct sql) then
          QCheck.Test.fail_reportf "sql conjunctive disagrees on %s"
            (Htl.Pretty.to_string f)
        else true)
      (arb_seed "sql-conjunctive");
    Helpers.qtest ~count:40
      "exact satisfaction implies full similarity (credit-exact atoms)"
      (fun seed ->
        let rng = Workload.Rng.make seed in
        let store = Workload.Movies.random_store rng ~videos:1 ~branching:5 () in
        let ctx = Context.of_store store in
        (* only present/rel atoms: no partial credit anywhere *)
        let open Htl.Ast in
        let atom () =
          match Workload.Rng.int rng 2 with
          | 0 ->
              Exists
                ( "u",
                  Exists
                    ("v", Atom (Rel (Workload.Rng.pick rng [ "holds"; "near" ], [ "u"; "v" ])))
                )
          | _ -> Exists ("u", Atom (Present "u"))
        in
        let rec formula depth =
          if depth = 0 then atom ()
          else
            let sub () = formula (depth - 1) in
            match Workload.Rng.int rng 4 with
            | 0 -> And (sub (), sub ())
            | 1 -> Until (sub (), sub ())
            | 2 -> Eventually (sub ())
            | _ -> atom ()
        in
        let f = formula 2 in
        let exact = Htl.Exact.eval_over_level store ~level:2 f in
        let list = Query.run ctx f in
        let m = Sim_list.max_sim list in
        Array.for_all2
          (fun e id_ok -> (not e) || id_ok)
          exact
          (Array.init (Array.length exact) (fun i ->
               Float.abs (Sim_list.value_at list (i + 1) -. m) < 1e-9)))
      (arb_seed "exact-implies-full");
  ]

(* --- freeze domains ------------------------------------------------------- *)

(* A freeze's domain reaches the atoms below it: they build only the
   region rows it can keep, the cache key carries it, and a level
   operator leaves it behind.  The value tables behind it live in the
   level's index. *)
let domain_tests =
  let open Alcotest in
  let movie_store seed =
    Workload.Movies.random_store (Workload.Rng.make seed) ~videos:3 ~levels:2
      ~branching:6 ~object_pool:6 ()
  in
  let outcome ctx f =
    match Query.run ctx f with
    | list -> Ok (Sim_list.entries list)
    | exception Query.Error msg -> Error msg
  in
  [
    test_case "one atom under two freezes is two cache entries" `Quick
      (fun () ->
        (* the same eventually (v < speed(x)) under a freeze of speed(x)
           and of id(x): each builds the region rows of its own
           freeze's values, so a key without the domain would serve the
           second query the first one's rows *)
        let store = movie_store 11 in
        let shared = Context.of_store store in
        List.iter
          (fun q ->
            let f = parse q in
            let cacheless = Context.without_cache (Context.of_store store) in
            check sim_list q (Query.run cacheless f) (Query.run shared f))
          [
            "exists x . [v <- speed(x)] eventually (v < speed(x))";
            "exists x . [v <- id(x)] eventually (v < speed(x))";
          ]);
    test_case "a level operator leaves the freeze's domain behind" `Quick
      (fun () ->
        (* the train's speed is 5 or 25 on the scenes and 10, 20 or 30
           on their shots: the scene's value lies in no region of the
           shots' values, and the answer still depends on it *)
        let scene speed shots =
          Video_model.Segment.make
            ~meta:(Fixtures.shot ~objects:[ Fixtures.train ~speed () ] ())
            (List.map
               (fun speed ->
                 Video_model.Segment.leaf
                   (Fixtures.shot ~objects:[ Fixtures.train ~speed () ] ()))
               shots)
        in
        let store =
          Video_model.Store.of_video
            (Video_model.Video.create ~title:"levels"
               ~level_names:[ "video"; "scene"; "shot" ]
               (Video_model.Segment.make ~meta:(Fixtures.shot ())
                  [ scene 5 [ 10; 20 ]; scene 25 [ 10; 30 ]; scene 5 [ 30 ] ]))
        in
        let ctx = Context.of_store ~level:2 store in
        let f = parse "exists x . [v <- speed(x)] at level 3 (v < speed(x))" in
        check bool "direct = reference" true (check_against_oracle ctx f);
        check bool "scored somewhere" true
          (Sim_list.entries (Query.run ctx f) <> []));
    test_case "an inner exists hides the freeze's object" `Quick (fun () ->
        (* the atom's x is the inner one: the outer x's speeds say
           nothing about which of its regions the freeze keeps.  Query
           rejects an exists over a temporal operator, the evaluators
           do not. *)
        let ctx = Context.of_store (movie_store 3) in
        let f =
          parse
            "exists x . [v <- speed(x)] (present(x) and exists x . \
             eventually (v < speed(x)))"
        in
        check bool "direct = reference" true
          (check_against_oracle ~eval:Direct.eval_closed ctx f);
        check bool "sql = reference" true
          (check_against_oracle
             ~eval:(fun ctx f ->
               Sql_backend.run_conjunctive (Sql_backend.create ctx) ctx f)
             ctx f));
    test_case "a warm context's value tables follow an append" `Quick
      (fun () ->
        let store = movie_store 5 in
        let warm = Context.of_store store in
        let queries =
          List.map parse
            [
              "exists x . [v <- speed(x)] (speed(x) >= v until v >= speed(x))";
              "[m <- seg.mood] eventually (seg.mood = m)";
            ]
        in
        List.iter (fun f -> ignore (Query.run warm f)) queries;
        let rng = Workload.Rng.make 99 in
        Video_model.Store.append_segments store
          (List.init 8 (fun _ -> Workload.Movies.random_meta rng ~object_pool:6));
        List.iter
          (fun f ->
            check sim_list (Htl.Pretty.to_string f)
              (Query.run (Context.of_store store) f)
              (Query.run warm f))
          queries);
    test_case "a float frozen attribute raises the same message every call"
      `Quick (fun () ->
        let store =
          Video_model.Store.of_video
            (Video_model.Video.two_level ~title:"floats"
               [
                 Fixtures.shot ~objects:[ Fixtures.train ~speed:40 () ] ();
                 Fixtures.shot
                   ~objects:
                     [
                       Fixtures.obj ~id:4 ~otype:"train"
                         ~attrs:[ ("speed", Metadata.Value.Float 42.5) ]
                         ();
                     ]
                   ();
               ])
        in
        let ctx = Context.of_store store in
        let f = parse "exists x . [v <- speed(x)] eventually (v < speed(x))" in
        let first = outcome ctx f in
        check bool "raised" true (Result.is_error first);
        check (result (list (pair (testable Interval.pp Interval.equal) (float 0.))) string)
          "second call" first (outcome ctx f);
        check bool "a fresh context agrees" true
          (first = outcome (Context.of_store store) f));
  ]

let suites =
  [
    ("engine.casablanca", casablanca_tests);
    ("engine.type1", type1_tests);
    ("engine.direct", direct_tests);
    ("engine.sql", sql_tests);
    ("engine.topk", topk_tests);
    ("engine.oracle", oracle_tests);
    ("engine.domains", domain_tests);
  ]
