(* Tests for the persistent metadata index subsystem: the galloping set
   operations, the finalized posting families, the store-version-stamped
   registry, and the invariant the candidate-pruning pass rests on —
   pruned evaluation is observationally identical to a full scan. *)

module Store = Video_model.Store
module Index = Picture.Index
module Pruning = Picture.Pruning
module Sim_list = Simlist.Sim_list
open Engine

let sim_list = Alcotest.testable Sim_list.pp Sim_list.equal
let check_ids = Alcotest.(check (array int))

(* --- sorted-array set operations ------------------------------------------ *)

let setop_tests =
  let open Alcotest in
  let sorted_pair =
    let gen =
      QCheck.Gen.(
        pair
          (list (int_bound 60))
          (list (int_bound 60))
        >|= fun (a, b) ->
        ( Array.of_list (List.sort_uniq compare a),
          Array.of_list (List.sort_uniq compare b) ))
    in
    QCheck.make gen
      ~print:(fun (a, b) ->
        Printf.sprintf "[%s] / [%s]"
          (String.concat ";" (List.map string_of_int (Array.to_list a)))
          (String.concat ";" (List.map string_of_int (Array.to_list b))))
  in
  [
    test_case "intersect: empty, singleton, disjoint, nested, equal" `Quick
      (fun () ->
        check_ids "empty left" [||] (Pruning.intersect [||] [| 1; 2; 3 |]);
        check_ids "empty right" [||] (Pruning.intersect [| 1; 2; 3 |] [||]);
        check_ids "singleton hit" [| 5 |]
          (Pruning.intersect [| 5 |] [| 1; 5; 9 |]);
        check_ids "singleton miss" [||]
          (Pruning.intersect [| 4 |] [| 1; 5; 9 |]);
        check_ids "disjoint" [||] (Pruning.intersect [| 1; 3 |] [| 2; 4 |]);
        check_ids "interleaved disjoint" [||]
          (Pruning.intersect [| 2; 4; 6 |] [| 1; 3; 5; 7 |]);
        check_ids "nested" [| 2; 3; 4 |]
          (Pruning.intersect [| 2; 3; 4 |] [| 1; 2; 3; 4; 9 |]);
        check_ids "equal" [| 1; 2; 3 |]
          (Pruning.intersect [| 1; 2; 3 |] [| 1; 2; 3 |]);
        (* a run far past the small side exercises the galloping probe *)
        check_ids "gallop far" [| 999 |]
          (Pruning.intersect [| 999 |] (Array.init 1000 (fun i -> i)));
        check_ids "gallop strided" [| 0; 500; 999 |]
          (Pruning.intersect [| 0; 500; 999 |] (Array.init 1000 (fun i -> i))));
    test_case "union: empty, singleton, disjoint, nested, equal" `Quick
      (fun () ->
        check_ids "empty left" [| 1 |] (Pruning.union [||] [| 1 |]);
        check_ids "empty right" [| 1 |] (Pruning.union [| 1 |] [||]);
        check_ids "both empty" [||] (Pruning.union [||] [||]);
        check_ids "disjoint" [| 1; 2; 3; 4 |]
          (Pruning.union [| 1; 3 |] [| 2; 4 |]);
        check_ids "overlapping" [| 1; 2; 3; 5 |]
          (Pruning.union [| 1; 3 |] [| 2; 3; 5 |]);
        check_ids "nested" [| 1; 2; 3; 4; 9 |]
          (Pruning.union [| 2; 3; 4 |] [| 1; 2; 3; 4; 9 |]);
        check_ids "equal" [| 1; 2; 3 |]
          (Pruning.union [| 1; 2; 3 |] [| 1; 2; 3 |]));
    Helpers.qtest ~count:500 "intersect agrees with the list model"
      (fun (a, b) ->
        Array.to_list (Pruning.intersect a b)
        = List.filter (fun x -> Array.mem x b) (Array.to_list a))
      sorted_pair;
    Helpers.qtest ~count:500 "union agrees with the list model"
      (fun (a, b) ->
        Array.to_list (Pruning.union a b)
        = List.sort_uniq compare (Array.to_list a @ Array.to_list b))
      sorted_pair;
    Helpers.qtest ~count:500 "intersect distributes over union"
      (fun (a, b) ->
        Pruning.intersect a (Pruning.union a b) = a
        && Pruning.union a (Pruning.intersect a b) = a)
      sorted_pair;
  ]

(* --- a fixture level exercising every posting family ---------------------- *)

let box x0 x1 = Metadata.Bbox.make ~x0 ~y0:0. ~x1 ~y1:1.

let entity ?attrs ?bbox id otype = Metadata.Entity.make ~id ~otype ?attrs ?bbox ()

let meta ?(objects = []) ?(relationships = []) ?(attrs = []) () =
  Metadata.Seg_meta.make ~objects ~relationships ~attrs ()

(* shots (level-2 ids 1..5):
   1: man#1 (speed 30), train#2 (speed 80), holds(1,2), mood="calm"
   2: woman#3, mood="tense"
   3: (empty)
   4: man#1 and dog#4 with bounding boxes (derivable left_of)
   5: train#2 (speed 80), rating=7 *)
let fixture () =
  let shots =
    [
      meta
        ~objects:
          [
            entity 1 "man" ~attrs:[ ("speed", Metadata.Value.Int 30) ];
            entity 2 "train" ~attrs:[ ("speed", Metadata.Value.Int 80) ];
          ]
        ~relationships:[ Metadata.Relationship.make "holds" [ 1; 2 ] ]
        ~attrs:[ ("mood", Metadata.Value.Str "calm") ]
        ();
      meta
        ~objects:[ entity 3 "woman" ]
        ~attrs:[ ("mood", Metadata.Value.Str "tense") ]
        ();
      meta ();
      meta
        ~objects:
          [ entity 1 "man" ~bbox:(box 0. 1.); entity 4 "dog" ~bbox:(box 2. 3.) ]
        ();
      meta
        ~objects:[ entity 2 "train" ~attrs:[ ("speed", Metadata.Value.Int 80) ] ]
        ~attrs:[ ("rating", Metadata.Value.Int 7) ]
        ();
    ]
  in
  Store.of_video (Video_model.Video.two_level ~title:"fixture" shots)

let posting_tests =
  let open Alcotest in
  let idx () = Index.build (fixture ()) ~level:2 in
  [
    test_case "object, type and relationship postings" `Quick (fun () ->
        let idx = idx () in
        check_ids "man#1" [| 1; 4 |] (Index.segments_of_object idx 1);
        check_ids "train#2" [| 1; 5 |] (Index.segments_of_object idx 2);
        check_ids "absent object" [||] (Index.segments_of_object idx 99);
        check_ids "type train" [| 1; 5 |] (Index.segments_of_type idx "train");
        check_ids "type dog" [| 4 |] (Index.segments_of_type idx "dog");
        check_ids "unknown type" [||] (Index.segments_of_type idx "zebra");
        check_ids "holds" [| 1 |] (Index.segments_of_relationship idx "holds");
        check_ids "unknown rel" [||]
          (Index.segments_of_relationship idx "fires_at");
        check_ids "with objects" [| 1; 2; 4; 5 |]
          (Index.segments_with_objects idx);
        check (list int) "objects at level" [ 1; 2; 3; 4 ]
          (Index.objects_at_level idx);
        check (list string) "types at level" [ "dog"; "man"; "train"; "woman" ]
          (Index.types_at_level idx);
        check int "level" 2 (Index.level idx);
        check int "segment count" 5 (Index.segment_count idx));
    test_case "attribute postings, names and values" `Quick (fun () ->
        let idx = idx () in
        check_ids "seg mood" [| 1; 2 |] (Index.segments_with_seg_attr idx "mood");
        check_ids "seg mood=calm" [| 1 |]
          (Index.segments_with_seg_attr_value idx "mood"
             (Metadata.Value.Str "calm"));
        check_ids "seg rating as float (Int/Float coercion)" [| 5 |]
          (Index.segments_with_seg_attr_value idx "rating"
             (Metadata.Value.Float 7.));
        check_ids "undefined seg attr" [||]
          (Index.segments_with_seg_attr idx "nope");
        check_ids "obj speed" [| 1; 5 |] (Index.segments_with_obj_attr idx "speed");
        check_ids "obj speed=80" [| 1; 5 |]
          (Index.segments_with_obj_attr_value idx "speed"
             (Metadata.Value.Int 80));
        check_ids "obj speed=30" [| 1 |]
          (Index.segments_with_obj_attr_value idx "speed"
             (Metadata.Value.Int 30));
        (* the virtual attributes of Entity.attr are indexed too *)
        check_ids "virtual type covers objects" [| 1; 2; 4; 5 |]
          (Index.segments_with_obj_attr idx "type");
        check_ids "virtual type=man" [| 1; 4 |]
          (Index.segments_with_obj_attr_value idx "type"
             (Metadata.Value.Str "man"));
        check_ids "virtual id=4" [| 4 |]
          (Index.segments_with_obj_attr_value idx "id" (Metadata.Value.Int 4)));
    test_case "hoisted freeze-region points are sorted and distinct" `Quick
      (fun () ->
        let idx = idx () in
        let p = Index.seg_attr_points idx "mood" in
        check (list int) "mood ints" [] p.Index.ints;
        check (list string) "mood strs" [ "calm"; "tense" ] p.Index.strs;
        check bool "mood clean" true (p.Index.bad = None);
        let p = Index.obj_attr_points idx "speed" ~oid:2 in
        check (list int) "speed#2 ints (deduplicated)" [ 80 ] p.Index.ints;
        let p = Index.seg_attr_points idx "nope" in
        check (list int) "missing attr: no ints" [] p.Index.ints;
        check (list string) "missing attr: no strs" [] p.Index.strs);
    Helpers.qtest ~count:100
      "a type plan's candidates = the fold of unions over compatible types"
      (fun (seed, asked) ->
        let store =
          Workload.Movies.random_store (Workload.Rng.make seed) ~videos:3
            ~branching:6 ~object_pool:6 ()
        in
        let idx = Index.build store ~level:(Store.levels store) in
        let taxonomy = Picture.Taxonomy.default in
        let folded =
          List.fold_left
            (fun acc found ->
              if Picture.Taxonomy.similarity taxonomy ~asked ~found > 0. then
                Pruning.union acc (Index.segments_of_type idx found)
              else acc)
            [||] (Index.types_at_level idx)
        in
        let f =
          Htl.Parser.formula_of_string
            (Printf.sprintf "exists u . type(u) = %S" asked)
        in
        Pruning.candidates ~taxonomy idx (Pruning.plan f) = Some folded)
      QCheck.(
        pair small_nat
          (oneofl
             [ "thing"; "person"; "man"; "vehicle"; "train"; "animal";
               "gun"; "zebra" ]));
    test_case "a type plan allocates one mark byte per segment and its output"
      `Quick (fun () ->
        (* folding [union] over the compatible postings copied the growing
           result once per type: several words per candidate *)
        let store =
          Workload.Movies.random_store (Workload.Rng.make 19970407)
            ~videos:20 ~branching:100 ~object_pool:8 ()
        in
        let idx = Index.build store ~level:2 in
        let taxonomy = Picture.Taxonomy.default in
        let plan =
          Pruning.plan
            (Htl.Parser.formula_of_string "exists u . type(u) = \"man\"")
        in
        let candidates () =
          match Pruning.candidates ~taxonomy idx plan with
          | Some a -> a
          | None -> fail "a type plan covers the whole level"
        in
        let out = Array.length (candidates ()) in
        let calls = 20 in
        (* the output outgrows the minor heap and goes straight to the
           major heap, whose word count [Gc.quick_stat] only catches up
           on during a major slice: that lag pulled allocations from
           before the window into it, or left this window's out.  A full
           major cycle at each end settles the counters, so the delta is
           the window's allocation exactly. *)
        let settle () = Gc.full_major () in
        settle ();
        let before = Obs.Resource.sample () in
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (candidates ()))
        done;
        settle ();
        let words =
          Obs.Resource.allocated_words
            (Obs.Resource.delta ~before ~after:(Obs.Resource.sample ()))
          /. float_of_int calls
        in
        let n = Index.segment_count idx in
        let bound = float_of_int ((n / 8) + out + 64) in
        check bool
          (Printf.sprintf "%.0f words per call <= %.0f (%d segments, %d out)"
             words bound n out)
          true (words <= bound));
  ]

(* --- the registry: build-once, version stamping --------------------------- *)

let counter m name = Obs.Metrics.counter_value m name

let registry_tests =
  let open Alcotest in
  [
    test_case "repeated gets serve one build until the store changes" `Quick
      (fun () ->
        let s = fixture () in
        let r = Index.Registry.create () in
        let i1 = Index.Registry.get r s ~level:2 in
        let i2 = Index.Registry.get r s ~level:2 in
        check bool "same finalized index" true (i1 == i2);
        Store.set_attr s ~level:2 ~id:3 ~name:"mood"
          (Metadata.Value.Str "calm");
        let i3 = Index.Registry.get r s ~level:2 in
        check bool "rebuilt after mutation" true (i1 != i3);
        check_ids "rebuilt index sees the edit" [| 1; 2; 3 |]
          (Index.segments_with_seg_attr i3 "mood"));
    test_case "concurrent gets build once" `Quick (fun () ->
        let s = fixture () in
        let r = Index.Registry.create () in
        let m = Obs.Metrics.create () in
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () -> Index.Registry.get r ~metrics:m s ~level:2))
        in
        let indexes = List.map Domain.join domains in
        check int "one build" 1 (counter m "picture.index.builds");
        match indexes with
        | first :: rest ->
            List.iter
              (fun i -> check bool "all the same index" true (i == first))
              rest
        | [] -> assert false);
    test_case "one query builds at most once (atoms and freeze share)" `Quick
      (fun () ->
        (* the freeze quantifier's value table and the atomic evaluator
           used to build private indexes; both must go through the
           context's registry now *)
        let m = Obs.Metrics.create () in
        let ctx = Context.with_metrics (Context.of_store (fixture ())) m in
        let q = "exists x . (present(x) and [v <- speed(x)] v > 60)" in
        ignore (Query.run_string ctx q);
        check int "one build for the first query" 1
          (counter m "picture.index.builds");
        ignore (Query.run_string (Context.with_fresh_cache ctx) q);
        ignore (Query.run_string (Context.with_fresh_cache ctx) q);
        check int "still one build after re-running" 1
          (counter m "picture.index.builds");
        check bool "later runs hit the registry" true
          (counter m "picture.index.registry_hits" > 0));
    test_case "store mutation rebuilds and the results stay fresh" `Quick
      (fun () ->
        let s = fixture () in
        let m = Obs.Metrics.create () in
        let ctx = Context.with_metrics (Context.of_store s) m in
        let q = "exists x . (present(x) and type(x) = \"train\")" in
        let before = Query.run_string ctx q in
        Store.add_object s ~level:2 ~id:3
          (entity 9 "train" ~attrs:[ ("speed", Metadata.Value.Int 10) ]);
        let after = Query.run_string ctx q in
        check int "rebuilt once" 2 (counter m "picture.index.builds");
        check bool "the new train is visible" false
          (Sim_list.equal before after);
        let fresh = Query.run_string (Context.of_store s) q in
        check sim_list "agrees with a fresh context" fresh after);
  ]

(* --- delta builds and merges ---------------------------------------------- *)

let same_index a b =
  Alcotest.check Alcotest.bool "indexes structurally equal" true
    (compare (Index.dump a) (Index.dump b) = 0)

(* two appended shots overlapping the fixture's posting keys (man#1,
   holds, mood=calm, speed=80) and introducing fresh ones (zebra#5) *)
let appended_shots () =
  [
    meta
      ~objects:
        [
          entity 1 "man" ~attrs:[ ("speed", Metadata.Value.Int 80) ];
          entity 5 "zebra";
        ]
      ~relationships:[ Metadata.Relationship.make "holds" [ 1; 5 ] ]
      ~attrs:[ ("mood", Metadata.Value.Str "calm") ]
      ();
    meta ~attrs:[ ("rating", Metadata.Value.Int 9) ] ();
  ]

let delta_tests =
  let open Alcotest in
  [
    test_case "merge of a delta equals a from-scratch build" `Quick (fun () ->
        let s = fixture () in
        let base = Index.build s ~level:2 in
        let base_dump = Index.dump base in
        Store.append_segments s (appended_shots ());
        let delta = Index.build_delta s ~level:2 ~lo:6 in
        let merged = Index.merge base delta in
        same_index (Index.build s ~level:2) merged;
        check bool "base not mutated" true
          (compare (Index.dump base) base_dump = 0);
        check_ids "concatenated posting" [| 1; 4; 6 |]
          (Index.segments_of_object merged 1);
        check_ids "fresh posting" [| 6 |] (Index.segments_of_object merged 5);
        let p = Index.seg_attr_points merged "mood" in
        check (list string) "points stay distinct" [ "calm"; "tense" ]
          p.Index.strs);
    test_case "value tables are read once per index" `Quick (fun () ->
        let s = fixture () in
        let r = Index.Registry.create () in
        let idx = Index.Registry.get r s ~level:2 in
        let speeds () = Index.frozen_values idx s ~attr:"speed" ~objects:true in
        let first = speeds () in
        check bool "second call is the memo" true (speeds () == first);
        check bool "a segment attribute is its own entry" false
          (Index.frozen_values idx s ~attr:"speed" ~objects:false == first);
        Store.append_segments s (appended_shots ());
        let merged = Index.Registry.get r s ~level:2 in
        let fresh = Index.build s ~level:2 in
        check bool "the merged index reads the appended shots" true
          (Index.frozen_values merged s ~attr:"speed" ~objects:true
          = Index.frozen_values fresh s ~attr:"speed" ~objects:true);
        check bool "the appended shots add a speed" false
          (Index.frozen_values fresh s ~attr:"speed" ~objects:true = first));
    test_case "build_delta rejects an out-of-range lo" `Quick (fun () ->
        let s = fixture () in
        (try
           ignore (Index.build_delta s ~level:2 ~lo:0);
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        try
          ignore (Index.build_delta s ~level:2 ~lo:7);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    test_case "registry extends appended levels without a rebuild" `Quick
      (fun () ->
        let s = fixture () in
        let r = Index.Registry.create () in
        let m = Obs.Metrics.create () in
        ignore (Index.Registry.get r ~metrics:m s ~level:2);
        check int "one build" 1 (counter m "picture.index.builds");
        Store.append_segments s (appended_shots ());
        let idx = Index.Registry.get r ~metrics:m s ~level:2 in
        check int "builds stay flat" 1 (counter m "picture.index.builds");
        check int "one delta merge" 1
          (counter m "picture.index.delta_merges");
        same_index (Index.build s ~level:2) idx;
        (* a second get at the same version is a plain registry hit *)
        ignore (Index.Registry.get r ~metrics:m s ~level:2);
        check int "no further merges" 1
          (counter m "picture.index.delta_merges"));
    test_case "registry edits drop only the edited level" `Quick (fun () ->
        let s = Fixtures.layered_store () in
        let r = Index.Registry.create () in
        let m = Obs.Metrics.create () in
        ignore (Index.Registry.get r ~metrics:m s ~level:2);
        ignore (Index.Registry.get r ~metrics:m s ~level:3);
        check int "two builds" 2 (counter m "picture.index.builds");
        Store.set_attr s ~level:3 ~id:1 ~name:"mood"
          (Metadata.Value.Str "tense");
        ignore (Index.Registry.get r ~metrics:m s ~level:2);
        check int "level 2 untouched" 2 (counter m "picture.index.builds");
        let i3 = Index.Registry.get r ~metrics:m s ~level:3 in
        check int "level 3 rebuilt" 3 (counter m "picture.index.builds");
        check_ids "rebuild sees the edit" [| 1 |]
          (Index.segments_with_seg_attr i3 "mood"));
  ]

(* --- pruned evaluation = full scan, atom family by atom family ------------ *)

let full_config = { Picture.Retrieval.default_config with prune = false }

let family_queries =
  [
    ("present", "exists x . present(x)");
    ("stored relationship", "exists x . exists y . holds(x, y)");
    ("derived relationship", "exists x . exists y . left_of(x, y)");
    ("type, exact", "exists x . type(x) = \"man\"");
    ("type, taxonomy partial credit", "exists x . type(x) = \"car\"");
    ("type, unknown", "exists x . type(x) = \"zebra\"");
    ("seg attr eq", "seg.mood = \"calm\"");
    ("seg attr undefined", "seg.nope = \"x\"");
    ("obj attr cmp", "exists x . speed(x) > 50");
    ("freeze seg attr", "[v <- seg.rating] v > 5");
    ("freeze obj attr", "exists x . (present(x) and [v <- speed(x)] v > 60)");
    ("const", "3 > 2");
    ("conjunction mixes families", "exists x . (present(x) and seg.mood = \"calm\" and speed(x) > 50)");
  ]

let equivalence_tests =
  List.map
    (fun (name, q) ->
      Alcotest.test_case name `Quick (fun () ->
          let s = fixture () in
          let pruned = Query.run_string (Context.of_store s) q in
          let full = Query.run_string (Context.of_store ~config:full_config s) q in
          Alcotest.check sim_list name full pruned))
    family_queries

let suites =
  [
    ("index.setops", setop_tests);
    ("index.postings", posting_tests);
    ("index.registry", registry_tests);
    ("index.delta", delta_tests);
    ("index.pruned_eq_full", equivalence_tests);
  ]
