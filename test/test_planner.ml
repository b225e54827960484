(* Cost-based planner tests (DESIGN.md §2.21).

   Three harnesses:

   - join-order monotonicity (qcheck): in every planned [And] chain a
     conjunct with a lower estimated cardinality never ranks later —
     the planned order is a permutation sorted by non-decreasing
     [est_rows].

   - estimate accuracy: {!Picture.Pruning.estimate} is a sound upper
     bound on the index candidate count for every subformula of a
     random corpus (and never exceeds the level), and a named table's
     planned cardinality is its exact segment coverage.

   - planned = written differential (qcheck): across the four formula
     strata, both backends, sharded and unsharded, evaluation with the
     planner must be byte-equal ({!Sim_list.equal}) to evaluation with
     it disabled (joins in written order) — no plan decision may change
     results, only cost.

   A last check pins the served path: a default [Sharded.create] handle
   (what [htlq serve] answers through) folds a type (2) chain in the
   planned order. *)

open Engine
module Sim_list = Simlist.Sim_list
module Sharded = Htl_shard.Sharded

let store_of_seed ?(videos = 2) seed =
  let rng = Workload.Rng.make seed in
  Workload.Movies.random_store rng ~videos ~branching:4 ~object_pool:4 ()

(* the same plan [Query.dispatch] builds, from a context's parts *)
let plan_of (ctx : Context.t) f =
  Planner.build ?stats:ctx.stats ?index:(Context.index ctx)
    ~tables:ctx.tables ~taxonomy:ctx.picture_config.taxonomy
    ~prune:ctx.picture_config.prune
    ~segments:(Context.segment_count ctx)
    ~level:ctx.level f

(* a chain splits only at temporal [And]s: a non-temporal sub-conjunction
   is one unit, scored whole *)
let rec flatten f =
  match f with
  | Htl.Ast.And (a, b) when not (Htl.Ast.is_non_temporal f) ->
      flatten a @ flatten b
  | _ -> [ f ]

let rec subformulas f =
  f
  ::
  (match f with
  | Htl.Ast.Atom _ -> []
  | And (a, b) | Or (a, b) | Until (a, b) ->
      subformulas a @ subformulas b
  | Next g | Eventually g | Not g | Exists (_, g) | At_level (_, g) ->
      subformulas g
  | Freeze fr -> subformulas fr.body)

(* --- join-order monotonicity --------------------------------------------- *)

let monotonic_prop (seed, f) =
  let ctx = Context.of_store (store_of_seed seed) in
  let plan = plan_of ctx f in
  List.iter
    (fun g ->
      match Planner.join_order plan g with
      | None -> ()
      | Some order ->
          let chain = Array.of_list (flatten g) in
          let k = Array.length chain in
          if List.length order <> k then
            QCheck.Test.fail_reportf
              "planned order has %d positions for a %d-conjunct chain on %s"
              (List.length order) k (Htl.Pretty.to_string g);
          let seen = Array.make k false in
          List.iter
            (fun i ->
              if i < 0 || i >= k || seen.(i) then
                QCheck.Test.fail_reportf
                  "planned order is not a permutation on %s"
                  (Htl.Pretty.to_string g);
              seen.(i) <- true)
            order;
          (* every conjunct is a planned unit, so each has an estimate *)
          let rows =
            List.map
              (fun i ->
                match Planner.find plan chain.(i) with
                | Some e -> e.Planner.est_rows
                | None ->
                    QCheck.Test.fail_reportf "conjunct %s has no estimate in %s"
                      (Htl.Pretty.to_string chain.(i))
                      (Htl.Pretty.to_string g))
              order
          in
          let rec non_decreasing = function
            | a :: b :: _ when a > b ->
                QCheck.Test.fail_reportf
                  "a sparser conjunct ranks later (est %d before %d) on %s" a
                  b (Htl.Pretty.to_string g)
            | _ :: tl -> non_decreasing tl
            | [] -> ()
          in
          non_decreasing rows)
    (subformulas f);
  true

(* --- estimate accuracy ---------------------------------------------------- *)

let estimate_bound_prop (seed, f) =
  let ctx = Context.of_store (store_of_seed seed) in
  let idx =
    match Context.index ctx with
    | Some idx -> idx
    | None -> QCheck.Test.fail_report "store context has no index"
  in
  let taxonomy = ctx.Context.picture_config.Picture.Retrieval.taxonomy in
  let n = Context.segment_count ctx in
  List.iter
    (fun g ->
      let p = Picture.Pruning.plan g in
      let est = Picture.Pruning.estimate ~taxonomy idx p in
      if est < 0 || est > n then
        QCheck.Test.fail_reportf "estimate %d outside [0, %d] on %s" est n
          (Htl.Pretty.to_string g);
      match Picture.Pruning.candidates ~taxonomy idx p with
      | None -> ()
      | Some arr ->
          if est < Array.length arr then
            QCheck.Test.fail_reportf
              "estimate %d below the actual candidate count %d on %s" est
              (Array.length arr) (Htl.Pretty.to_string g))
    (subformulas f);
  true

let table_names = [ "p1"; "p2"; "p3" ]

let table_estimate_exact () =
  let ctx =
    Workload.Synthetic.context_with_atoms ~seed:11 ~n:40 ~selectivity:0.4
      table_names
  in
  List.iter
    (fun name ->
      let f = Htl.Ast.Atom (Htl.Ast.Rel (name, [])) in
      let plan = plan_of ctx f in
      let est =
        match Planner.find plan f with
        | Some e -> e.Planner.est_rows
        | None -> Alcotest.failf "no estimate for table atom %s" name
      in
      let actual = Sim_list.covered (Query.run ctx f) in
      Alcotest.(check int)
        (Printf.sprintf "named table %s: planned rows = exact coverage" name)
        actual est)
    table_names

(* --- access-path and backend decisions ------------------------------------ *)

let scan_threshold_demotes () =
  let ctx = Context.of_store (store_of_seed 42) in
  let f = Htl.Parser.formula_of_string "exists z . present(z)" in
  let build threshold =
    Planner.build ~scan_threshold:threshold
      ?index:(Context.index ctx) ~tables:[]
      ~taxonomy:ctx.Context.picture_config.Picture.Retrieval.taxonomy
      ~prune:true
      ~segments:(Context.segment_count ctx)
      ~level:ctx.Context.level f
  in
  (* at threshold 0 every indexed unit demotes to a planned scan; at a
     threshold above 1 nothing ever does *)
  Alcotest.(check bool)
    "threshold 0 demotes" true
    (Planner.scan_override (build 0.0) f);
  Alcotest.(check bool)
    "threshold > 1 never demotes" false
    (Planner.scan_override (build 1.1) f)

let auto_backend_decision () =
  let ctx = Context.of_store (store_of_seed 7) in
  let f =
    Htl.Parser.formula_of_string
      "(exists z . present(z)) until (exists z . moving(z))"
  in
  let plan = plan_of ctx f in
  let fingerprint = Htl.Hcons.intern_id f in
  (* cold: the lower static estimate wins *)
  let cold = Planner.choose_backend ~fingerprint plan in
  let expect_static =
    if Planner.direct_cost plan <= Planner.sql_cost plan then `Direct
    else `Sql
  in
  Alcotest.(check bool)
    "cold choice follows the static estimates" true
    (cold.Planner.picked = expect_static);
  Alcotest.(check bool)
    "cold reason cites estimates" true
    (Helpers.contains cold.Planner.reason "estimated cost");
  (* observed: once both backends carry a latency EWMA, the faster
     observation overrides the static ranking *)
  let stats = Obs.Stats.create () in
  let record backend latency_s =
    Obs.Stats.record_query stats ~fingerprint
      ~formula:(fun () -> Htl.Pretty.to_string f)
      ~backend ~latency_s ~error:false
  in
  record "direct" 0.5;
  record "sql" 0.001;
  let warm = Planner.choose_backend ~stats ~fingerprint plan in
  Alcotest.(check bool)
    "faster observed backend wins" true
    (warm.Planner.picked = `Sql);
  Alcotest.(check bool)
    "warm reason cites observations" true
    (Helpers.contains warm.Planner.reason "observed")

(* --- planned = written differential --------------------------------------- *)

let outcome run =
  match run () with
  | list -> Ok list
  | exception Query.Error msg -> Error msg

let planned_written store f =
  let check what planned written =
    match (planned, written) with
    | Ok a, Ok b ->
        if not (Sim_list.equal a b) then
          QCheck.Test.fail_reportf
            "planned %s differs from the written-order evaluation on %s" what
            (Htl.Pretty.to_string f)
    | Error _, Error _ -> ()
    | _ ->
        QCheck.Test.fail_reportf
          "planning changes the outcome class (%s) on %s" what
          (Htl.Pretty.to_string f)
  in
  List.iter
    (fun (bname, backend) ->
      let planned_ctx = Context.of_store store in
      let written_ctx = Context.of_store ~planner:false store in
      check bname
        (outcome (fun () -> Query.run ~backend planned_ctx f))
        (outcome (fun () -> Query.run ~backend written_ctx f));
      let planned_sh = Sharded.create ~shards:2 store in
      let written_sh = Sharded.create ~shards:2 ~planner:false store in
      check (bname ^ ", sharded")
        (outcome (fun () -> Sharded.run ~backend planned_sh f))
        (outcome (fun () -> Sharded.run ~backend written_sh f)))
    [ ("direct", Query.Direct_backend); ("sql", Query.Sql_backend_choice) ];
  true

let planned_written_prop (seed, f) = planned_written (store_of_seed seed) f

(* hand-written chains over the western fixture, one under [until] *)
let planned_written_western () =
  let store = Fixtures.western_store () in
  List.iter
    (fun q ->
      ignore (planned_written store (Htl.Parser.formula_of_string q)))
    [
      "exists x, y . (present(x) and name(x) = \"John Wayne\") until \
       fires_at(x, y)";
      "(exists x . type(x) = \"train\") and (exists x . type(x) = \"man\") \
       and eventually (exists x . type(x) = \"woman\")";
    ]

(* the movie generator's own type (2) formulas over a one-video store *)
let planned_written_movies seed =
  let rng = Workload.Rng.make seed in
  let store =
    Workload.Movies.random_store rng ~videos:1 ~branching:4 ~object_pool:4 ()
  in
  planned_written store (Workload.Movies.random_type2_formula rng ~depth:2)

(* --- the served path folds in the planned order --------------------------- *)

(* [htlq serve] answers through a [Sharded.create] handle with default
   arguments, so the planner is on.  A type (2) chain written
   dense-coverage first must show one flattened [direct.and] node whose
   recorded [join_order] is the plan's.  Join order never changes a
   result, so the differentials above cannot see a served chain that
   ignores the plan; this check does. *)
let served_chain_uses_plan () =
  let rng = Workload.Rng.make 321 in
  let store =
    Workload.Movies.random_store rng ~videos:2 ~branching:8 ~object_pool:12 ()
  in
  let ctx = (Sharded.contexts (Sharded.create store)).(0) in
  let body =
    Htl.Parser.formula_of_string
      "present(x) and speed(x) = 10 and name(x) = \"alpha\" and eventually \
       (name(x) = \"alpha\")"
  in
  let f = Htl.Ast.Exists ("x", body) in
  let planned =
    match Planner.join_order (plan_of ctx f) body with
    | Some order -> order
    | None -> Alcotest.fail "no planned order for the chain"
  in
  Alcotest.(check bool)
    "the plan reorders the written chain" true
    (planned <> List.init (List.length planned) Fun.id);
  let rec ands (n : Explain.node) =
    (if n.Explain.label = "direct.and" then [ n ] else [])
    @ List.concat_map ands n.Explain.children
  in
  match ands (Query.explain ~analyze:true ctx f).Explain.tree with
  | [ n ] ->
      Alcotest.(check (option string))
        "join_order is the planned order"
        (Some (String.concat "," (List.map string_of_int planned)))
        (List.assoc_opt "join_order" n.Explain.attrs)
  | nodes ->
      Alcotest.failf "%d direct.and nodes, expected one" (List.length nodes)

let suites =
  [
    ( "planner",
      [
        Helpers.qtest ~count:80 "planned And order is sorted by est_rows"
          monotonic_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Helpers.qtest ~count:80
          "Pruning.estimate bounds the candidate count" estimate_bound_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Alcotest.test_case "named-table estimates are exact" `Quick
          table_estimate_exact;
        Alcotest.test_case "scan threshold demotes high selectivity" `Quick
          scan_threshold_demotes;
        Alcotest.test_case "auto backend: static then observed" `Quick
          auto_backend_decision;
        Helpers.qtest ~count:40 "planned = written (type 1)"
          planned_written_prop
          (Helpers.arb_store_formula Helpers.gen_type1_formula);
        Helpers.qtest ~count:40 "planned = written (type 2)"
          planned_written_prop
          (Helpers.arb_store_formula Helpers.gen_type2_formula);
        Helpers.qtest ~count:40 "planned = written (conjunctive)"
          planned_written_prop
          (Helpers.arb_store_formula Helpers.gen_conjunctive_formula);
        Helpers.qtest ~count:40 "planned = written (mixed strata)"
          planned_written_prop
          (Helpers.arb_store_formula Helpers.gen_closed_formula);
        Alcotest.test_case "planned = written (western chains)" `Quick
          planned_written_western;
        Helpers.qtest ~count:30 "planned = written (movie type 2)"
          planned_written_movies
          (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.int);
      ] );
    ( "planner.served",
      [
        Alcotest.test_case "served And chain joins in the planned order"
          `Quick served_chain_uses_plan;
      ] );
  ]
