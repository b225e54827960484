(* Tests for the Simlist library: intervals, extents, similarity values,
   similarity lists (including the paper's Figure 2 worked example),
   similarity tables, ranges and value tables. *)

open Simlist
open Helpers

let iv = Interval.make

let sl ~max entries =
  Sim_list.of_entries ~max (List.map (fun (a, b, v) -> (iv a b, v)) entries)

(* --- Interval -------------------------------------------------------- *)

let interval_tests =
  let open Alcotest in
  [
    test_case "make validates ordering" `Quick (fun () ->
        check_raises "lo > hi" (Invalid_argument "Interval.make: lo (3) > hi (2)")
          (fun () -> ignore (iv 3 2)));
    test_case "point and length" `Quick (fun () ->
        check int "len [4,4]" 1 (Interval.length (Interval.point 4));
        check int "len [2,5]" 4 (Interval.length (iv 2 5)));
    test_case "contains" `Quick (fun () ->
        check bool "inside" true (Interval.contains (iv 2 5) 3);
        check bool "left edge" true (Interval.contains (iv 2 5) 2);
        check bool "right edge" true (Interval.contains (iv 2 5) 5);
        check bool "outside" false (Interval.contains (iv 2 5) 6));
    test_case "intersect" `Quick (fun () ->
        check (option interval_testable) "overlap" (Some (iv 3 5))
          (Interval.intersect (iv 1 5) (iv 3 8));
        check (option interval_testable) "disjoint" None
          (Interval.intersect (iv 1 2) (iv 4 8));
        check (option interval_testable) "touching" (Some (iv 4 4))
          (Interval.intersect (iv 1 4) (iv 4 8)));
    test_case "adjacent" `Quick (fun () ->
        check bool "yes" true (Interval.adjacent (iv 1 3) (iv 4 6));
        check bool "gap" false (Interval.adjacent (iv 1 3) (iv 5 6));
        check bool "overlap" false (Interval.adjacent (iv 1 4) (iv 4 6)));
    test_case "shift and clip" `Quick (fun () ->
        check interval_testable "shift" (iv 0 2) (Interval.shift (-1) (iv 1 3));
        check (option interval_testable) "clip" (Some (iv 2 3))
          (Interval.clip (iv 0 3) ~within:(iv 2 9)));
    test_case "compare orders by lo then hi" `Quick (fun () ->
        check bool "lo first" true (Interval.compare (iv 1 9) (iv 2 3) < 0);
        check bool "hi second" true (Interval.compare (iv 1 3) (iv 1 9) < 0);
        check int "equal" 0 (Interval.compare (iv 1 3) (iv 1 3)));
  ]

(* --- Sim -------------------------------------------------------------- *)

let sim_tests =
  let open Alcotest in
  [
    test_case "make validates bounds" `Quick (fun () ->
        (try
           ignore (Sim.make ~actual:2. ~max:1.);
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        (try
           ignore (Sim.make ~actual:(-1.) ~max:1.);
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    test_case "fraction" `Quick (fun () ->
        check (float 1e-9) "half" 0.5
          (Sim.fraction (Sim.make ~actual:1. ~max:2.));
        check (float 1e-9) "zero max" 0. (Sim.fraction (Sim.zero ~max:0.)));
    test_case "conj sums both components" `Quick (fun () ->
        let c = Sim.conj (Sim.make ~actual:1. ~max:2.) (Sim.make ~actual:3. ~max:4.) in
        check (float 1e-9) "actual" 4. (Sim.actual c);
        check (float 1e-9) "max" 6. (Sim.max_sim c));
    test_case "conj with a zero side keeps the other (partial match)" `Quick
      (fun () ->
        let c = Sim.conj (Sim.zero ~max:2.) (Sim.make ~actual:3. ~max:4.) in
        check (float 1e-9) "actual" 3. (Sim.actual c);
        check (float 1e-9) "max" 6. (Sim.max_sim c));
    test_case "best picks larger actual" `Quick (fun () ->
        let a = Sim.make ~actual:1. ~max:4. and b = Sim.make ~actual:3. ~max:4. in
        check bool "b wins" true (Sim.equal b (Sim.best a b)));
  ]

(* --- Extent ----------------------------------------------------------- *)

let extent_tests =
  let open Alcotest in
  [
    test_case "single" `Quick (fun () ->
        let e = Extent.single 10 in
        check int "total" 10 (Extent.total e);
        check int "count" 1 (Extent.count e);
        check interval_testable "span" (iv 1 10) (Extent.containing e 5));
    test_case "of_lengths" `Quick (fun () ->
        let e = Extent.of_lengths [ 3; 4; 2 ] in
        check int "total" 9 (Extent.total e);
        check (list interval_testable) "spans"
          [ iv 1 3; iv 4 7; iv 8 9 ]
          (Extent.spans e));
    test_case "containing via binary search" `Quick (fun () ->
        let e = Extent.of_lengths [ 3; 4; 2 ] in
        check interval_testable "id 1" (iv 1 3) (Extent.containing e 1);
        check interval_testable "id 3" (iv 1 3) (Extent.containing e 3);
        check interval_testable "id 4" (iv 4 7) (Extent.containing e 4);
        check interval_testable "id 9" (iv 8 9) (Extent.containing e 9);
        check int "last_of 5" 7 (Extent.last_of e 5));
    test_case "containing rejects out-of-range" `Quick (fun () ->
        let e = Extent.of_lengths [ 2; 2 ] in
        (try
           ignore (Extent.containing e 0);
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        (try
           ignore (Extent.containing e 5);
           fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    test_case "of_spans round-trips spans" `Quick (fun () ->
        let e = Extent.of_lengths [ 5; 1; 4 ] in
        check bool "round trip" true (Extent.equal e (Extent.of_spans (Extent.spans e))));
    test_case "of_spans rejects gaps" `Quick (fun () ->
        try
          ignore (Extent.of_spans [ iv 1 3; iv 5 6 ]);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

(* --- Sim_list: construction and canonical form ------------------------ *)

let construction_tests =
  let open Alcotest in
  [
    test_case "of_entries sorts" `Quick (fun () ->
        let l = sl ~max:10. [ (5, 6, 2.); (1, 2, 1.) ] in
        check (list (pair interval_testable (float 0.))) "sorted"
          [ (iv 1 2, 1.); (iv 5 6, 2.) ]
          (Sim_list.entries l));
    test_case "of_entries drops non-positive values" `Quick (fun () ->
        let l = sl ~max:10. [ (1, 2, 0.); (4, 5, -1.); (7, 8, 3.) ] in
        check int "one entry" 1 (Sim_list.length l));
    test_case "of_entries coalesces adjacent equal values" `Quick (fun () ->
        let l = sl ~max:10. [ (1, 2, 3.); (3, 5, 3.); (6, 6, 4.) ] in
        check (list (pair interval_testable (float 0.))) "coalesced"
          [ (iv 1 5, 3.); (iv 6 6, 4.) ]
          (Sim_list.entries l));
    test_case "of_entries keeps adjacent different values separate" `Quick
      (fun () ->
        let l = sl ~max:10. [ (1, 2, 3.); (3, 5, 4.) ] in
        check int "two entries" 2 (Sim_list.length l));
    test_case "of_entries rejects overlap" `Quick (fun () ->
        try
          ignore (sl ~max:10. [ (1, 4, 1.); (4, 5, 2.) ]);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    test_case "of_entries rejects actual above max" `Quick (fun () ->
        try
          ignore (sl ~max:1. [ (1, 2, 2.) ]);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    test_case "value_at and fraction_at" `Quick (fun () ->
        let l = sl ~max:8. [ (2, 4, 2.); (7, 7, 6.) ] in
        check (float 0.) "absent" 0. (Sim_list.value_at l 1);
        check (float 0.) "inside" 2. (Sim_list.value_at l 3);
        check (float 0.) "point" 6. (Sim_list.value_at l 7);
        check (float 1e-9) "fraction" 0.75 (Sim_list.fraction_at l 7));
    test_case "covered counts ids" `Quick (fun () ->
        let l = sl ~max:8. [ (2, 4, 2.); (7, 7, 6.) ] in
        check int "covered" 4 (Sim_list.covered l));
    test_case "dense round trip" `Quick (fun () ->
        let l = sl ~max:8. [ (2, 4, 2.); (7, 7, 6.) ] in
        check sim_list_testable "round trip" l
          (Sim_list.of_dense ~max:8. (Sim_list.to_dense ~n:10 l)));
  ]

(* --- Sim_list: conjunction -------------------------------------------- *)

let conjunction_tests =
  let open Alcotest in
  [
    test_case "disjoint inputs pass through" `Quick (fun () ->
        let a = sl ~max:4. [ (1, 2, 1.) ] and b = sl ~max:6. [ (5, 6, 2.) ] in
        let c = Sim_list.conjunction a b in
        check (float 0.) "max" 10. (Sim_list.max_sim c);
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 1 2, 1.); (iv 5 6, 2.) ]
          (Sim_list.entries c));
    test_case "overlap sums and splits" `Quick (fun () ->
        let a = sl ~max:4. [ (1, 5, 1.) ] and b = sl ~max:6. [ (3, 8, 2.) ] in
        let c = Sim_list.conjunction a b in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 1 2, 1.); (iv 3 5, 3.); (iv 6 8, 2.) ]
          (Sim_list.entries c));
    test_case "identical intervals merge into one entry" `Quick (fun () ->
        let a = sl ~max:4. [ (2, 4, 1.) ] and b = sl ~max:4. [ (2, 4, 2.) ] in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 2 4, 3.) ]
          (Sim_list.entries (Sim_list.conjunction a b)));
    test_case "empty is neutral except for max" `Quick (fun () ->
        let a = sl ~max:4. [ (2, 4, 1.) ] in
        let c = Sim_list.conjunction a (Sim_list.empty ~max:6.) in
        check (float 0.) "max grows" 10. (Sim_list.max_sim c);
        check (list (pair interval_testable (float 0.))) "entries keep a"
          (Sim_list.entries a) (Sim_list.entries c));
    test_case "conjunction_many sums three lists" `Quick (fun () ->
        let mk v = sl ~max:2. [ (1, 1, v) ] in
        let c = Sim_list.conjunction_many [ mk 1.; mk 2.; mk 0.5 ] in
        check (float 1e-9) "value" 3.5 (Sim_list.value_at c 1);
        check (float 0.) "max" 6. (Sim_list.max_sim c));
    qtest "conjunction matches dense reference"
      (fun (n, _extents, a, b) ->
        let la = Sim_list.of_dense ~max:8. a
        and lb = Sim_list.of_dense ~max:8. b in
        let c = Sim_list.conjunction la lb in
        Sim_list.to_dense ~n c = dense_conj a b)
      (arb_two_dense_with_extents ());
    qtest "conjunction is commutative"
      (fun (_n, _extents, a, b) ->
        let la = Sim_list.of_dense ~max:8. a
        and lb = Sim_list.of_dense ~max:8. b in
        Sim_list.equal (Sim_list.conjunction la lb) (Sim_list.conjunction lb la))
      (arb_two_dense_with_extents ());
    qtest "conjunction output is canonical (round-trips through entries)"
      (fun (_n, _extents, a, b) ->
        let c =
          Sim_list.conjunction
            (Sim_list.of_dense ~max:8. a)
            (Sim_list.of_dense ~max:8. b)
        in
        Sim_list.equal c
          (Sim_list.of_entries ~max:(Sim_list.max_sim c) (Sim_list.entries c)))
      (arb_two_dense_with_extents ());
  ]

(* --- Sim_list: next ---------------------------------------------------- *)

let next_tests =
  let open Alcotest in
  [
    test_case "shifts left by one" `Quick (fun () ->
        let l = sl ~max:4. [ (3, 5, 2.) ] in
        let r = Sim_list.next_shift ~extents:(Extent.single 10) l in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 2 4, 2.) ]
          (Sim_list.entries r));
    test_case "last id of video gets zero" `Quick (fun () ->
        let l = sl ~max:4. [ (10, 10, 2.) ] in
        let r = Sim_list.next_shift ~extents:(Extent.single 10) l in
        check (float 0.) "at 9" 2. (Sim_list.value_at r 9);
        check (float 0.) "at 10" 0. (Sim_list.value_at r 10));
    test_case "does not cross extent boundaries" `Quick (fun () ->
        (* ids 1-3 and 4-6 are different videos; g at 4 must not leak to 3 *)
        let l = sl ~max:4. [ (4, 4, 2.) ] in
        let r = Sim_list.next_shift ~extents:(Extent.of_lengths [ 3; 3 ]) l in
        check (float 0.) "at 3" 0. (Sim_list.value_at r 3);
        check bool "empty" true (Sim_list.is_empty r));
    test_case "entry at extent start contributes inside only" `Quick (fun () ->
        let l = sl ~max:4. [ (4, 6, 2.) ] in
        let r = Sim_list.next_shift ~extents:(Extent.of_lengths [ 3; 3 ]) l in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 4 5, 2.) ]
          (Sim_list.entries r));
    qtest "next matches dense reference"
      (fun (n, extents, a, _b) ->
        let l = Sim_list.of_dense ~max:8. a in
        Sim_list.to_dense ~n (Sim_list.next_shift ~extents l)
        = dense_next ~extents a)
      (arb_two_dense_with_extents ());
    qtest "next twice equals shifting dense twice"
      (fun (n, extents, a, _b) ->
        let l = Sim_list.of_dense ~max:8. a in
        let twice =
          Sim_list.next_shift ~extents (Sim_list.next_shift ~extents l)
        in
        Sim_list.to_dense ~n twice = dense_next ~extents (dense_next ~extents a))
      (arb_two_dense_with_extents ());
  ]

(* --- Sim_list: until and eventually ------------------------------------ *)

let until_tests =
  let open Alcotest in
  [
    test_case "paper figure 2 example" `Quick (fun () ->
        (* L1 (g): [25,100] and [200,250], values above threshold.
           L2 (h): ([10,50],10) ([55,60],15) ([90,110],12) ([125,175],10),
           max 20.  Expected output (§3.1):
           ([10,24],10) ([25,60],15) ([61,110],12) ([125,175],10). *)
        let g = sl ~max:20. [ (25, 100, 20.); (200, 250, 20.) ] in
        let h =
          sl ~max:20.
            [ (10, 50, 10.); (55, 60, 15.); (90, 110, 12.); (125, 175, 10.) ]
        in
        let r = Sim_list.until_merge ~extents:(Extent.single 300) g h in
        check (list (pair interval_testable (float 0.))) "output"
          [ (iv 10 24, 10.); (iv 25 60, 15.); (iv 61 110, 12.); (iv 125 175, 10.) ]
          (Sim_list.entries r);
        check (float 0.) "max" 20. (Sim_list.max_sim r));
    test_case "h reachable one past the corridor end" `Quick (fun () ->
        (* g holds on [1,3]; h only at 4.  until holds at 1..3 (g carries us
           to 4) and at 4 itself. *)
        let g = sl ~max:1. [ (1, 3, 1.) ] in
        let h = sl ~max:5. [ (4, 4, 5.) ] in
        let r = Sim_list.until_merge ~extents:(Extent.single 6) g h in
        check (list (pair interval_testable (float 0.))) "output"
          [ (iv 1 4, 5.) ]
          (Sim_list.entries r));
    test_case "g below threshold breaks the corridor" `Quick (fun () ->
        let g = sl ~max:10. [ (1, 2, 9.); (3, 3, 2.); (4, 5, 9.) ] in
        let h = sl ~max:5. [ (6, 6, 5.) ] in
        let r = Sim_list.until_merge ~extents:(Extent.single 6) g h in
        (* from 1-2 the corridor stops at 3 (frac 0.2 < 0.5), so h at 6 is
           unreachable; from 4-5 it is reachable. *)
        check (list (pair interval_testable (float 0.))) "output"
          [ (iv 4 6, 5.) ]
          (Sim_list.entries r));
    test_case "h at the segment itself needs no g" `Quick (fun () ->
        let g = Sim_list.empty ~max:1. in
        let h = sl ~max:5. [ (3, 4, 2.) ] in
        let r = Sim_list.until_merge ~extents:(Extent.single 6) g h in
        check (list (pair interval_testable (float 0.))) "output"
          [ (iv 3 4, 2.) ]
          (Sim_list.entries r));
    test_case "later larger h wins inside corridor (suffix max)" `Quick
      (fun () ->
        let g = sl ~max:1. [ (1, 10, 1.) ] in
        let h = sl ~max:9. [ (2, 2, 3.); (8, 8, 9.) ] in
        let r = Sim_list.until_merge ~extents:(Extent.single 10) g h in
        check (list (pair interval_testable (float 0.))) "output"
          [ (iv 1 8, 9.) ]
          (Sim_list.entries r));
    test_case "until does not cross extents" `Quick (fun () ->
        let g = sl ~max:1. [ (1, 6, 1.) ] in
        let h = sl ~max:5. [ (5, 5, 5.) ] in
        let r =
          Sim_list.until_merge ~extents:(Extent.of_lengths [ 3; 3 ]) g h
        in
        (* ids 1-3 are another video; h at 5 must not be visible there *)
        check (float 0.) "at 2" 0. (Sim_list.value_at r 2);
        check (float 0.) "at 4" 5. (Sim_list.value_at r 4);
        check (float 0.) "at 5" 5. (Sim_list.value_at r 5));
    test_case "threshold is inclusive" `Quick (fun () ->
        let g = sl ~max:10. [ (1, 2, 5.) ] in
        let h = sl ~max:5. [ (3, 3, 5.) ] in
        let r =
          Sim_list.until_merge ~threshold:0.5 ~extents:(Extent.single 3) g h
        in
        check (float 0.) "at 1" 5. (Sim_list.value_at r 1));
    qtest "until matches dense reference"
      (fun (n, extents, a, b) ->
        let g = Sim_list.of_dense ~max:8. a
        and h = Sim_list.of_dense ~max:8. b in
        Sim_list.to_dense ~n (Sim_list.until_merge ~extents g h)
        = dense_until ~extents ~gmax:8. a b)
      (arb_two_dense_with_extents ());
    qtest "until with various thresholds matches dense reference"
      (fun ((n, extents, a, b), threshold) ->
        let g = Sim_list.of_dense ~max:8. a
        and h = Sim_list.of_dense ~max:8. b in
        Sim_list.to_dense ~n (Sim_list.until_merge ~threshold ~extents g h)
        = dense_until ~threshold ~extents ~gmax:8. a b)
      (QCheck.pair
         (arb_two_dense_with_extents ())
         (QCheck.float_range 0.01 1.));
    qtest "eventually matches dense reference"
      (fun (n, extents, a, _b) ->
        let h = Sim_list.of_dense ~max:8. a in
        Sim_list.to_dense ~n (Sim_list.eventually ~extents h)
        = dense_eventually ~extents a)
      (arb_two_dense_with_extents ());
    qtest "eventually equals until with an always-true g"
      (fun (n, extents, a, _b) ->
        let h = Sim_list.of_dense ~max:8. a in
        let top =
          Sim_list.of_dense ~max:1. (Array.make n 1.)
        in
        Sim_list.equal
          (Sim_list.eventually ~extents h)
          (Sim_list.until_merge ~extents top h))
      (arb_two_dense_with_extents ());
    qtest "eventually is idempotent"
      (fun (_n, extents, a, _b) ->
        let h = Sim_list.of_dense ~max:8. a in
        let e = Sim_list.eventually ~extents h in
        Sim_list.equal e (Sim_list.eventually ~extents e))
      (arb_two_dense_with_extents ());
  ]

(* --- Sim_list: merge_max and restrict ---------------------------------- *)

(* k lists of entries drawn from three values, so ties and equal values
   that abut across lists are common, some lists empty.  A dense draw
   packs its entries into ~50 ids, where [merge_max] takes its dense
   pass; a sparse one spreads a few entries over ~100k ids, where it
   sweeps. *)
let arb_max_lists =
  let open QCheck.Gen in
  let list ~gap =
    map
      (fun pieces ->
        let _, entries =
          List.fold_left
            (fun (pos, acc) (skip, len, v) ->
              let lo = pos + skip in
              (lo + len, (iv lo (lo + len - 1), v) :: acc))
            (1, []) pieces
        in
        Sim_list.of_entries ~max:3. (List.rev entries))
      (list_size (int_range 0 6)
         (triple (int_range 0 gap) (int_range 1 4) (oneofl [ 1.; 2.; 3. ])))
  in
  let lists =
    oneof [ return 5; return 20_000 ] >>= fun gap ->
    list_size (int_range 1 6) (list ~gap)
  in
  QCheck.make
    ~print:(fun ls ->
      String.concat " | " (List.map (Format.asprintf "%a" Sim_list.pp) ls))
    lists

let merge_tests =
  let open Alcotest in
  [
    test_case "merge_max takes pointwise maximum" `Quick (fun () ->
        let a = sl ~max:8. [ (1, 4, 2.) ]
        and b = sl ~max:8. [ (3, 6, 5.) ]
        and c = sl ~max:8. [ (4, 4, 8.) ] in
        let m = Sim_list.merge_max [ a; b; c ] in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 1 2, 2.); (iv 3 3, 5.); (iv 4 4, 8.); (iv 5 6, 5.) ]
          (Sim_list.entries m));
    test_case "merge_max rejects differing maxima" `Quick (fun () ->
        try
          ignore (Sim_list.merge_max [ sl ~max:2. []; sl ~max:3. [] ]);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    test_case "merge_max of single list is identity" `Quick (fun () ->
        let a = sl ~max:8. [ (1, 4, 2.) ] in
        check sim_list_testable "id" a (Sim_list.merge_max [ a ]));
    qtest "divide-and-conquer equals pairwise merge" ~count:200
      (fun (n, _extents, a, b) ->
        let mk arr = Sim_list.of_dense ~max:8. arr in
        let quarter k =
          Array.init n (fun i -> if (i + k) mod 4 = 0 then a.(i) else b.(i))
        in
        let lists = [ mk a; mk b; mk (quarter 1); mk (quarter 2); mk (quarter 3) ] in
        Sim_list.equal (Sim_list.merge_max lists)
          (Sim_list.merge_max_pairwise lists))
      (arb_two_dense_with_extents ());
    qtest "merge_max equals pairwise merges on ties, empties and sparse spans"
      ~count:500
      (fun lists ->
        Sim_list.equal (Sim_list.merge_max lists)
          (Sim_list.merge_max_pairwise lists))
      arb_max_lists;
    qtest "merge_max matches dense reference" ~count:200
      (fun (n, _extents, a, b) ->
        let m =
          Sim_list.merge_max
            [ Sim_list.of_dense ~max:8. a; Sim_list.of_dense ~max:8. b ]
        in
        Sim_list.to_dense ~n m = dense_max a b)
      (arb_two_dense_with_extents ());
    test_case "restrict keeps only given spans" `Quick (fun () ->
        let l = sl ~max:8. [ (1, 10, 3.) ] in
        let r = Sim_list.restrict l [ iv 2 3; iv 7 8 ] in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 2 3, 3.); (iv 7 8, 3.) ]
          (Sim_list.entries r));
    test_case "restrict to nothing is empty" `Quick (fun () ->
        let l = sl ~max:8. [ (1, 10, 3.) ] in
        check bool "empty" true (Sim_list.is_empty (Sim_list.restrict l [])));
    test_case "scale_max rejects shrinking below values" `Quick (fun () ->
        let l = sl ~max:8. [ (1, 2, 5.) ] in
        try
          ignore (Sim_list.scale_max l ~max:4.);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

(* --- Sim_list: every kernel against the dense oracle -------------------- *)

(* Raw entries over ids [1..n]: sorted and disjoint, with the shapes the
   canonical form has to absorb — single-id intervals, equal values that
   abut, values at the [max + tolerance] clamp edge — and, often, none
   at all.  [None] repeats the previous value, so abutting equal values
   come up on most draws. *)
let gen_raw ~n ~max =
  let open QCheck.Gen in
  let edge = max +. (1e-9 *. Float.max 1. (Float.abs max)) in
  let value =
    frequency
      [
        (5, map (fun k -> Some (float_of_int k *. max /. 8.)) (int_range 1 8));
        (1, return (Some max));
        (1, return (Some edge));
        (2, return None);
      ]
  in
  let piece =
    triple (int_range 0 2)
      (frequency [ (3, return 1); (2, int_range 2 5) ])
      value
  in
  let layout pieces =
    let rec go pos prev acc = function
      | [] -> List.rev acc
      | (gap, len, v) :: tl ->
          let lo = pos + gap in
          let hi = lo + len - 1 in
          let v = Option.value v ~default:prev in
          if hi > n then List.rev acc
          else go (hi + 1) v ((iv lo hi, v) :: acc) tl
    in
    go 1 (max /. 2.) [] pieces
  in
  frequency
    [ (1, return []); (5, map layout (list_size (int_range 1 n) piece)) ]

(* the raw entries as a dense array, clamped to [max] as of_entries does *)
let dense_of_raw ~n ~max raw =
  let a = Array.make n 0. in
  List.iter
    (fun (i, v) ->
      for id = Interval.lo i to Interval.hi i do
        a.(id - 1) <- Float.min v max
      done)
    raw;
  a

let maxima = [ 1.; 5.; 8. ]

type kernel_case = {
  n : int;
  extents : Extent.t;
  max_a : float;
  raw_a : Sim_list.entry list;
  max_b : float;
  raw_b : Sim_list.entry list;
}

let arb_kernel_case ?(same_max = false) () =
  let gen =
    let open QCheck.Gen in
    int_range 1 40 >>= fun n ->
    gen_extents ~n >>= fun extents ->
    oneofl maxima >>= fun max_a ->
    (if same_max then return max_a else oneofl maxima) >>= fun max_b ->
    gen_raw ~n ~max:max_a >>= fun raw_a ->
    map
      (fun raw_b -> { n; extents; max_a; raw_a; max_b; raw_b })
      (gen_raw ~n ~max:max_b)
  in
  let print c =
    let pp_raw raw =
      String.concat " "
        (List.map
           (fun (i, v) -> Printf.sprintf "%s:%h" (Interval.to_string i) v)
           raw)
    in
    Format.asprintf "n=%d %a a(max %g)=[%s] b(max %g)=[%s]" c.n Extent.pp
      c.extents c.max_a (pp_raw c.raw_a) c.max_b (pp_raw c.raw_b)
  in
  QCheck.make ~print gen

let list_a c = Sim_list.of_entries ~max:c.max_a c.raw_a
let list_b c = Sim_list.of_entries ~max:c.max_b c.raw_b
let dense_a c = dense_of_raw ~n:c.n ~max:c.max_a c.raw_a
let dense_b c = dense_of_raw ~n:c.n ~max:c.max_b c.raw_b

(* [l] has exactly the oracle's values, and its entries are the one
   canonical form of them *)
let matches ~n expected l =
  Sim_list.to_dense ~n l = expected
  && Sim_list.equal l (Sim_list.of_dense ~max:(Sim_list.max_sim l) expected)

let dense_conj_mode mode ~max_a ~max_b a b =
  let m = max_a +. max_b in
  let frac max v = if max = 0. then 1. else v /. max in
  Array.map2
    (fun va vb ->
      let v =
        match (mode : Sim_list.conj_mode) with
        | Weighted_sum -> va +. vb
        | Min_fraction -> Float.min (frac max_a va) (frac max_b vb) *. m
        | Product_fraction -> frac max_a va *. frac max_b vb *. m
      in
      if v > 0. then Float.min v m else 0.)
    a b

let conj_modes =
  [
    ("weighted sum", Sim_list.Weighted_sum);
    ("min fraction", Sim_list.Min_fraction);
    ("product fraction", Sim_list.Product_fraction);
  ]

let shuffle_list seed l =
  let st = Random.State.make [| seed |] in
  List.map snd
    (List.sort compare (List.map (fun e -> (Random.State.bits st, e)) l))

let kernel_tests =
  let open Alcotest in
  let raises msg f =
    check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  List.map
    (fun (name, mode) ->
      qtest
        (Printf.sprintf "conjunction (%s) matches the dense oracle" name)
        (fun c ->
          matches ~n:c.n
            (dense_conj_mode mode ~max_a:c.max_a ~max_b:c.max_b (dense_a c)
               (dense_b c))
            (Sim_list.conjunction_mode mode (list_a c) (list_b c)))
        (arb_kernel_case ()))
    conj_modes
  @ [
      qtest "of_entries canonicalises: clamps, coalesces, sorts"
        (fun c ->
          let expected = dense_a c in
          matches ~n:c.n expected (list_a c)
          && Sim_list.equal (list_a c)
               (Sim_list.of_entries ~max:c.max_a
                  (shuffle_list c.n c.raw_a)))
        (arb_kernel_case ());
      qtest "merge_max matches the dense oracle"
        (fun c ->
          matches ~n:c.n
            (Array.map2 Float.max (dense_a c) (dense_b c))
            (Sim_list.merge_max [ list_a c; list_b c ]))
        (arb_kernel_case ~same_max:true ());
      qtest "restrict matches the dense oracle"
        (fun c ->
          let spans = List.map fst c.raw_b in
          let inside id = List.exists (fun s -> Interval.contains s id) spans in
          matches ~n:c.n
            (Array.mapi
               (fun i v -> if inside (i + 1) then v else 0.)
               (dense_a c))
            (Sim_list.restrict (list_a c) spans))
        (arb_kernel_case ());
      qtest "until matches the dense oracle at several thresholds"
        (fun (c, threshold) ->
          matches ~n:c.n
            (dense_until ~threshold ~extents:c.extents ~gmax:c.max_a
               (dense_a c) (dense_b c))
            (Sim_list.until_merge ~threshold ~extents:c.extents (list_a c)
               (list_b c)))
        (QCheck.pair (arb_kernel_case ())
           (QCheck.oneofl [ 0.25; 0.5; 0.75; 1.0 ]));
      qtest "eventually matches the dense oracle"
        (fun c ->
          matches ~n:c.n
            (dense_eventually ~extents:c.extents (dense_a c))
            (Sim_list.eventually ~extents:c.extents (list_a c)))
        (arb_kernel_case ());
      qtest "next matches the dense oracle"
        (fun c ->
          matches ~n:c.n
            (dense_next ~extents:c.extents (dense_a c))
            (Sim_list.next_shift ~extents:c.extents (list_a c)))
        (arb_kernel_case ());
      qtest "lift_to_parents matches the dense oracle"
        (fun c ->
          let spans = Extent.spans c.extents in
          let a = dense_a c in
          matches ~n:(List.length spans)
            (Array.of_list (List.map (fun s -> a.(Interval.lo s - 1)) spans))
            (Engine.Direct.lift_to_parents spans (list_a c)))
        (arb_kernel_case ());
      qtest "overlay equals of_dense on the overwritten array"
        (fun (c, seed) ->
          (* b's values, unclamped, at b's ids and at every third id *)
          let b = Array.make c.n 0. in
          List.iter
            (fun (i, v) ->
              for id = Interval.lo i to Interval.hi i do
                b.(id - 1) <- v
              done)
            c.raw_b;
          let ids =
            List.filter
              (fun id -> b.(id - 1) > 0. || (id + seed) mod 3 = 0)
              (List.init c.n (fun i -> i + 1))
          in
          let a = dense_a c in
          List.iter (fun id -> a.(id - 1) <- b.(id - 1)) ids;
          let ids = Array.of_list ids in
          Sim_list.equal
            (Sim_list.of_dense ~max:c.max_a a)
            (Sim_list.overlay (list_a c) ~ids
               ~values:(Array.map (fun id -> b.(id - 1)) ids)))
        (QCheck.pair (arb_kernel_case ~same_max:true ()) (QCheck.int_bound 2));
      test_case "overlay errors" `Quick (fun () ->
          let l = sl ~max:1. [ (1, 4, 1.) ] in
          raises "Sim_list.of_entries: actual 2 exceeds max 1" (fun () ->
              Sim_list.overlay l ~ids:[| 2 |] ~values:[| 2. |]);
          raises "Sim_list.of_entries: actual 2 exceeds max 1" (fun () ->
              Sim_list.of_dense ~max:1. [| 1.; 2.; 1.; 1. |]);
          raises "Sim_list.overlay: ids not ascending" (fun () ->
              Sim_list.overlay l ~ids:[| 3; 2 |] ~values:[| 0.5; 0.5 |]);
          raises "Sim_list.overlay: ids and values differ in length"
            (fun () -> Sim_list.overlay l ~ids:[| 3 |] ~values:[||]));
      test_case "of_entries errors keep their messages" `Quick (fun () ->
          raises "Sim_list.of_entries: negative max" (fun () ->
              sl ~max:(-1.) []);
          raises "Sim_list: overlapping intervals [1,4] and [4,5]" (fun () ->
              sl ~max:10. [ (4, 5, 2.); (1, 4, 1.) ]);
          raises "Sim_list: overlapping intervals [1,4] and [4,5]" (fun () ->
              sl ~max:1. [ (1, 4, 1.); (4, 5, 2.) ]);
          raises "Sim_list.of_entries: actual 2 exceeds max 1" (fun () ->
              sl ~max:1. [ (1, 2, 1.); (3, 3, 2.) ]);
          check int "zero-valued overlaps are dropped, not rejected" 1
            (Sim_list.length (sl ~max:1. [ (1, 4, 0.); (2, 3, 1.) ])));
      test_case "conjunction and merge_max allocate O(1) words per entry"
        `Quick (fun () ->
          (* a count, not a timing: an intermediate list or a re-sort of
             the output costs hundreds of words per entry *)
          let rng = Workload.Rng.make 100_000 in
          let mk () = Workload.Synthetic.similarity_list rng ~n:5_000_000 () in
          let a = mk () and b = mk () in
          let w0 = Gc.minor_words () in
          ignore (Sim_list.conjunction a b);
          ignore (Sim_list.merge_max [ a; b ]);
          let words = Gc.minor_words () -. w0 in
          let per_entry =
            words /. float_of_int (Sim_list.length a + Sim_list.length b)
          in
          check bool
            (Printf.sprintf "%.1f minor words per input entry <= 100" per_entry)
            true (per_entry <= 100.));
    ]

(* --- Sim_list: the packed layout ------------------------------------- *)

(* Every kernel's output keeps at most 3 words per entry plus a fixed 8
   (record, boxed maximum, two array headers): no slack left in the
   arrays, no boxed float per entry. *)
let within_words l =
  Obj.reachable_words (Obj.repr l) <= (3 * Sim_list.length l) + 8
  && Sim_list.words l = (3 * Sim_list.length l) + 8

let layout_tests =
  [
    qtest "every kernel's output keeps at most 3n + 8 words"
      (fun (c, threshold) ->
        let a = list_a c and b = list_b c in
        (* a and b under one maximum, for the kernels that need it *)
        let m = Float.max c.max_a c.max_b in
        let a' = Sim_list.scale_max a ~max:m and b' = Sim_list.scale_max b ~max:m in
        let ids =
          Array.of_list
            (List.filter (fun id -> id mod 3 = 0) (List.init c.n (fun i -> i + 1)))
        in
        List.for_all within_words
          (List.map (fun (_, mode) -> Sim_list.conjunction_mode mode a b) conj_modes
          @ [
              a;
              Sim_list.until_merge ~threshold ~extents:c.extents a b;
              Sim_list.eventually ~extents:c.extents a;
              Sim_list.next_shift ~extents:c.extents a;
              Sim_list.merge_max [ a'; b' ];
              Sim_list.restrict a (List.map fst c.raw_b);
              Sim_list.concat [ (a', 0); (b', c.n) ];
              Sim_list.concat [ (a', 0); (b', c.n); (a', 2 * c.n) ];
              Sim_list.overlay a ~ids
                ~values:
                  (Array.map
                     (fun id -> Float.min c.max_a (Sim_list.value_at b id))
                     ids);
              Sim_list.of_dense ~max:c.max_a (dense_a c);
              Sim_list.of_entries ~max:c.max_a (shuffle_list c.n c.raw_a);
            ]))
      (QCheck.pair (arb_kernel_case ()) (QCheck.oneofl [ 0.25; 0.5; 1.0 ]));
    Alcotest.test_case "reading by index agrees with entries" `Quick
      (fun () ->
        let l = sl ~max:4. [ (2, 3, 1.); (5, 5, 4.); (6, 9, 2.) ] in
        Alcotest.(check int) "length" 3 (Sim_list.length l);
        List.iteri
          (fun i (iv, v) ->
            Alcotest.(check int) "lo" (Interval.lo iv) (Sim_list.lo l i);
            Alcotest.(check int) "hi" (Interval.hi iv) (Sim_list.hi l i);
            Alcotest.(check (float 0.)) "value" v (Sim_list.value l i))
          (Sim_list.entries l);
        Alcotest.(check (list (float 0.)))
          "value_at by binary search"
          [ 0.; 1.; 1.; 0.; 4.; 2.; 2.; 0. ]
          (List.map (Sim_list.value_at l) [ 1; 2; 3; 4; 5; 6; 9; 10 ]));
    Alcotest.test_case "next reads extents without allocating per entry"
      `Quick (fun () ->
        (* a count, not a timing: the output's arrays are past the minor
           heap's size limit, so what reaches it per entry is garbage,
           such as an interval built per extent lookup (3 words) *)
        let rng = Workload.Rng.make 7 in
        let n = 400_000 in
        let a = Workload.Synthetic.similarity_list rng ~n ~selectivity:0.5 () in
        let extents = Extent.of_lengths (List.init 100 (fun _ -> n / 100)) in
        let w0 = Gc.minor_words () in
        let r = Sim_list.next_shift ~extents a in
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool) "40k entries" true (Sim_list.length a >= 35_000);
        Alcotest.(check bool)
          (Printf.sprintf "%.0f minor words for %d output entries <= 1 each + 1000"
             words (Sim_list.length r))
          true
          (words <= float_of_int (Sim_list.length r + 1000)));
  ]

(* --- Sim_list: the sharded gather ------------------------------------- *)

(* Shard lists with heavy ties: values from {1, 2} on ids local to each
   shard, shards often empty (first and last included), so equal values
   abut across boundaries and the top k cuts through runs of ties. *)
let gen_gather =
  let open QCheck.Gen in
  let part len =
    let piece = triple (int_range 0 1) (int_range 1 3) (int_range 1 2) in
    map
      (fun pieces ->
        let rec go pos acc = function
          | [] -> List.rev acc
          | (gap, run, v) :: tl ->
              let lo = pos + gap in
              let hi = lo + run - 1 in
              if hi > len then List.rev acc
              else go (hi + 1) ((iv lo hi, float_of_int v) :: acc) tl
        in
        Sim_list.of_entries ~max:2. (go 1 [] pieces))
      (frequency [ (1, return []); (3, list_size (int_range 0 8) piece) ])
  in
  list_size (int_range 1 5) (int_range 1 10) >>= fun lens ->
  flatten_l (List.map part lens) >>= fun lists ->
  let offsets =
    List.rev (snd (List.fold_left (fun (o, acc) n -> (o + n, o :: acc)) (0, []) lens))
  in
  return (List.combine lists offsets)

let print_parts parts =
  String.concat " | "
    (List.map
       (fun (l, off) -> Format.asprintf "+%d %a" off Sim_list.pp l)
       parts)

(* the gather's oracle: the shifted entries, concatenated, through the
   boundary API *)
let gathered parts =
  Sim_list.of_entries ~max:2.
    (List.concat_map
       (fun (l, off) ->
         List.map (fun (i, v) -> (Interval.shift off i, v)) (Sim_list.entries l))
       parts)

(* the k best ids by (value desc, id asc), one id at a time *)
let dense_top_k l ~k =
  let ids =
    List.concat_map
      (fun (i, v) -> List.init (Interval.length i) (fun j -> (Interval.lo i + j, v)))
      (Sim_list.entries l)
  in
  let ranked =
    List.stable_sort (fun (i1, v1) (i2, v2) ->
        match Float.compare v2 v1 with 0 -> Int.compare i1 i2 | c -> c) ids
  in
  List.filteri (fun i _ -> i < k) ranked

let gather_tests =
  [
    qtest "concat, concat_length and merged_top_k equal the gathered list"
      (fun parts ->
        let whole = gathered parts in
        let m = Sim_list.length whole in
        Sim_list.equal whole (Sim_list.concat parts)
        && Sim_list.concat_length parts = m
        && List.for_all
             (fun k ->
               k < 0
               || List.map
                    (fun (id, s) -> (id, Sim.actual s))
                    (Engine.Topk.merged_top_k parts ~k)
                  = dense_top_k whole ~k)
             [ 0; 1; m - 1; m; m + 5 ])
      (QCheck.make ~print:print_parts gen_gather);
  ]

(* --- Sim_list: kernels under preempting threads -------------------------- *)

(* The server's workers are systhreads on one domain and preempt each
   other inside kernels; a buffer shared between calls would mix two
   results.  Four threads run every kernel over the same inputs many
   times and must each get exactly the sequential answers. *)
let thread_tests =
  [
    Alcotest.test_case "4 threads on one domain get the sequential results"
      `Quick (fun () ->
        let rng = Workload.Rng.make 7 in
        let mk () = Workload.Synthetic.similarity_list rng ~n:2_000_000 () in
        let a = mk () and b = mk () in
        let extents = Extent.of_lengths (List.init 20 (fun _ -> 100_000)) in
        let kernels =
          [
            (fun () -> Sim_list.conjunction a b);
            (fun () -> Sim_list.conjunction_mode Sim_list.Min_fraction a b);
            (fun () -> Sim_list.merge_max [ a; b ]);
            (fun () -> Sim_list.until_merge ~extents a b);
            (fun () -> Sim_list.eventually ~extents b);
            (fun () -> Sim_list.next_shift ~extents a);
            (fun () -> Sim_list.concat [ (a, 0); (b, 2_000_000) ]);
            (fun () ->
              Sim_list.overlay a ~ids:(Array.init 1000 (fun i -> (i * 1500) + 1))
                ~values:(Array.make 1000 5.));
          ]
        in
        let expected = List.map (fun k -> k ()) kernels in
        let mismatches = Atomic.make 0 in
        (* the runtime preempts a thread on its 50 ms tick: run for 0.6 s
           (at least two rounds), so a dozen ticks land inside kernels *)
        let until = Unix.gettimeofday () +. 0.6 in
        let worker () =
          let round = ref 0 in
          while !round < 2 || Unix.gettimeofday () < until do
            incr round;
            (* each thread starts the kernels at a different phase *)
            List.iteri
              (fun i (k, want) ->
                if (i + !round) mod 2 = 0 then Thread.yield ();
                if not (Sim_list.equal (k ()) want) then Atomic.incr mismatches)
              (List.combine kernels expected)
          done
        in
        List.iter Thread.join (List.init 4 (fun _ -> Thread.create worker ()));
        Alcotest.(check int) "results that differ" 0 (Atomic.get mismatches));
  ]

(* --- Range ------------------------------------------------------------- *)

let range_tests =
  let open Alcotest in
  let range = testable Range.pp Range.equal in
  [
    test_case "constructors and mem" `Quick (fun () ->
        check bool "eq mem" true (Range.mem (Range.Vint 3) (Range.int_eq 3));
        check bool "eq not-mem" false (Range.mem (Range.Vint 4) (Range.int_eq 3));
        check bool "lt" true (Range.mem (Range.Vint 2) (Range.int_lt 3));
        check bool "lt edge" false (Range.mem (Range.Vint 3) (Range.int_lt 3));
        check bool "gt" true (Range.mem (Range.Vint 4) (Range.int_gt 3));
        check bool "ge edge" true (Range.mem (Range.Vint 3) (Range.int_ge 3));
        check bool "le edge" true (Range.mem (Range.Vint 3) (Range.int_le 3));
        check bool "full" true (Range.mem (Range.Vint 1000000) Range.full_int);
        check bool "str eq" true (Range.mem (Range.Vstr "a") (Range.str_eq "a"));
        check bool "str any" true (Range.mem (Range.Vstr "zz") Range.full_str);
        check bool "kind mismatch" false (Range.mem (Range.Vint 1) Range.full_str));
    test_case "intersect int ranges" `Quick (fun () ->
        check (option range) "overlap"
          (Some (Range.int_between 3 5))
          (Range.intersect (Range.int_ge 3) (Range.int_le 5));
        check (option range) "empty" None
          (Range.intersect (Range.int_gt 5) (Range.int_lt 5));
        check (option range) "point"
          (Some (Range.int_eq 5))
          (Range.intersect (Range.int_ge 5) (Range.int_le 5)));
    test_case "intersect strings" `Quick (fun () ->
        check (option range) "any+eq"
          (Some (Range.str_eq "x"))
          (Range.intersect Range.full_str (Range.str_eq "x"));
        check (option range) "eq clash" None
          (Range.intersect (Range.str_eq "x") (Range.str_eq "y")));
    test_case "intersect rejects mixed kinds" `Quick (fun () ->
        try
          ignore (Range.intersect Range.full_int Range.full_str);
          fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
  ]

(* --- Sim_table ---------------------------------------------------------- *)

let table_tests =
  let open Alcotest in
  let list2 ~max entries = sl ~max entries in
  let conj = Sim_list.conjunction in
  [
    test_case "of_sim_list is a one-row closed table" `Quick (fun () ->
        let t = Sim_table.of_sim_list (list2 ~max:4. [ (1, 2, 3.) ]) in
        check int "rows" 1 (Sim_table.row_count t);
        check (list string) "no obj cols" [] (Sim_table.obj_cols t));
    test_case "join on shared object variable" `Quick (fun () ->
        let a =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[] ~max:2.
            [
              { objs = [ ("x", 1) ]; attrs = []; list = list2 ~max:2. [ (1, 3, 2.) ] };
              { objs = [ ("x", 2) ]; attrs = []; list = list2 ~max:2. [ (5, 6, 1.) ] };
            ]
        and b =
          Sim_table.create ~obj_cols:[ "x"; "y" ] ~attr_cols:[] ~max:3.
            [
              {
                objs = [ ("x", 1); ("y", 7) ];
                attrs = [];
                list = list2 ~max:3. [ (2, 4, 3.) ];
              };
            ]
        in
        let j = Sim_table.join ~combine:conj a b in
        check (list string) "cols" [ "x"; "y" ] (Sim_table.obj_cols j);
        check (float 0.) "max" 5. (Sim_table.max_sim j);
        (* x=1 matches: conj; x=2 unmatched: padded, list survives *)
        check int "rows" 2 (Sim_table.row_count j);
        let by_x =
          List.sort compare
            (List.map
               (fun (r : Sim_table.row) -> (List.assoc "x" r.objs, Sim_list.value_at r.list 2, Sim_list.value_at r.list 5))
               (Sim_table.rows j))
        in
        check
          (list (triple int (float 0.) (float 0.)))
          "row values"
          [ (1, 5., 0.); (2, 0., 1.) ]
          by_x);
    test_case "join intersects attribute ranges" `Quick (fun () ->
        let a =
          Sim_table.create ~obj_cols:[] ~attr_cols:[ "h" ] ~max:1.
            [
              {
                objs = [];
                attrs = [ ("h", Range.int_ge 5) ];
                list = list2 ~max:1. [ (1, 1, 1.) ];
              };
            ]
        and b =
          Sim_table.create ~obj_cols:[] ~attr_cols:[ "h" ] ~max:1.
            [
              {
                objs = [];
                attrs = [ ("h", Range.int_le 3) ];
                list = list2 ~max:1. [ (1, 1, 1.) ];
              };
            ]
        in
        let j = Sim_table.join ~combine:conj a b in
        (* ranges are disjoint: the rows do not join but both get padded *)
        check int "rows" 2 (Sim_table.row_count j);
        List.iter
          (fun (r : Sim_table.row) ->
            check (float 0.) "padded value" 1. (Sim_list.value_at r.list 1))
          (Sim_table.rows j));
    test_case "project_exists takes the best evaluation per id" `Quick
      (fun () ->
        let t =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[] ~max:4.
            [
              { objs = [ ("x", 1) ]; attrs = []; list = list2 ~max:4. [ (1, 4, 2.) ] };
              { objs = [ ("x", 2) ]; attrs = []; list = list2 ~max:4. [ (3, 6, 4.) ] };
            ]
        in
        let l = Sim_table.project_exists t in
        check (float 0.) "at 2" 2. (Sim_list.value_at l 2);
        check (float 0.) "at 3" 4. (Sim_list.value_at l 3);
        check (float 0.) "at 6" 4. (Sim_list.value_at l 6));
    test_case "project_exists of empty table is empty list" `Quick (fun () ->
        let t = Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[] ~max:4. [] in
        let l = Sim_table.project_exists t in
        check bool "empty" true (Sim_list.is_empty l);
        check (float 0.) "max kept" 4. (Sim_list.max_sim l));
    test_case "freeze_join restricts to value spans" `Quick (fun () ->
        (* T1: formula with attr var h in range >= 5, true on [1,10];
           q's value table: value 7 on [2,3], value 4 on [6,8].
           After [h <- q]: only ids where q >= 5 survive: [2,3]. *)
        let t1 =
          Sim_table.create ~obj_cols:[] ~attr_cols:[ "h" ] ~max:1.
            [
              {
                objs = [];
                attrs = [ ("h", Range.int_ge 5) ];
                list = list2 ~max:1. [ (1, 10, 1.) ];
              };
            ]
        in
        let vt =
          Value_table.create ~obj_cols:[]
            [
              { objs = []; value = Range.Vint 7; spans = [ iv 2 3 ] };
              { objs = []; value = Range.Vint 4; spans = [ iv 6 8 ] };
            ]
        in
        let t = Sim_table.freeze_join t1 ~var:"h" vt in
        check (list string) "h gone" [] (Sim_table.attr_cols t);
        check int "rows" 1 (Sim_table.row_count t);
        let r = List.hd (Sim_table.rows t) in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 2 3, 1.) ]
          (Sim_list.entries r.list));
    test_case "freeze_join joins on object variables" `Quick (fun () ->
        let t1 =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[ "h" ] ~max:1.
            [
              {
                objs = [ ("x", 1) ];
                attrs = [ ("h", Range.full_int) ];
                list = list2 ~max:1. [ (1, 5, 1.) ];
              };
            ]
        in
        let vt =
          Value_table.create ~obj_cols:[ "x" ]
            [
              { objs = [ ("x", 1) ]; value = Range.Vint 3; spans = [ iv 1 2 ] };
              { objs = [ ("x", 9) ]; value = Range.Vint 3; spans = [ iv 4 5 ] };
            ]
        in
        let t = Sim_table.freeze_join t1 ~var:"h" vt in
        check int "rows (x=9 does not join)" 1 (Sim_table.row_count t);
        let r = List.hd (Sim_table.rows t) in
        check (list (pair interval_testable (float 0.))) "entries"
          [ (iv 1 2, 1.) ]
          (Sim_list.entries r.list));
  ]

(* --- freeze_join against the pair-by-pair join ------------------------- *)

(* The join as §3.3 states it: every (row, value row) pair whose value
   lies in the row's range and whose bindings agree gives the row's list
   restricted to that value's spans; then rows with the same (binding,
   remaining ranges) key are max-merged, one row per evaluation. *)
let freeze_oracle t ~var vt =
  let unconstrained =
    match (Value_table.rows vt : Value_table.row list) with
    | { value = Range.Vstr _; _ } :: _ -> Range.full_str
    | _ -> Range.full_int
  in
  let unify a b =
    let merged = List.sort_uniq compare (a @ b) in
    let keys = List.sort_uniq compare (List.map fst merged) in
    if List.length keys = List.length merged then Some merged else None
  in
  let pairs =
    List.concat_map
      (fun (row : Sim_table.row) ->
        let range =
          Option.value (List.assoc_opt var row.attrs) ~default:unconstrained
        in
        List.filter_map
          (fun (vr : Value_table.row) ->
            if not (Range.mem vr.value range) then None
            else
              Option.bind (unify row.objs vr.objs) (fun objs ->
                  let list = Sim_list.restrict row.list vr.spans in
                  let attrs = List.remove_assoc var row.attrs in
                  if attrs <> [] || not (Sim_list.is_empty list) then
                    Some { Sim_table.objs; attrs; list }
                  else None))
          (Value_table.rows vt))
      (Sim_table.rows t)
  in
  let keys =
    List.sort_uniq compare
      (List.map (fun (r : Sim_table.row) -> (r.objs, r.attrs)) pairs)
  in
  List.map
    (fun (objs, attrs) ->
      let lists =
        List.filter_map
          (fun (r : Sim_table.row) ->
            if r.objs = objs && r.attrs = attrs then Some r.list else None)
          pairs
      in
      { Sim_table.objs; attrs; list = Sim_list.merge_max lists })
    keys

let table_repr rows =
  List.sort compare
    (List.map
       (fun (r : Sim_table.row) ->
         ( r.objs,
           List.map (fun (k, v) -> (k, Format.asprintf "%a" Range.pp v)) r.attrs,
           List.map
             (fun (i, v) -> (Interval.lo i, Interval.hi i, v))
             (Sim_list.entries r.list) ))
       rows)

let check_freeze ?visited what t ~var vt =
  let got = Sim_table.freeze_join ?visited t ~var vt in
  Alcotest.(check bool)
    (what ^ ": one row per (binding, ranges)")
    true
    (let keys =
       List.map
         (fun (r : Sim_table.row) -> (r.objs, r.attrs))
         (Sim_table.rows got)
     in
     List.length keys = List.length (List.sort_uniq compare keys));
  Alcotest.(check bool)
    (what ^ ": equals the pair-by-pair join")
    true
    (table_repr (Sim_table.rows got)
    = table_repr (freeze_oracle t ~var vt));
  got

(* x = 1 has speed 10 on [1,2], 20 on [3,4], 30 on [6,6]; x = 2 has
   speed 20 on [2,5] *)
let speeds =
  Value_table.create ~obj_cols:[ "x" ]
    [
      { objs = [ ("x", 1) ]; value = Range.Vint 20; spans = [ iv 3 4 ] };
      { objs = [ ("x", 2) ]; value = Range.Vint 20; spans = [ iv 2 5 ] };
      { objs = [ ("x", 1) ]; value = Range.Vint 10; spans = [ iv 1 2 ] };
      { objs = [ ("x", 1) ]; value = Range.Vint 30; spans = [ iv 6 6 ] };
    ]

let full_row ?(objs = []) attrs =
  { Sim_table.objs; attrs; list = sl ~max:1. [ (1, 8, 1.) ] }

let gen_freeze_case =
  let open QCheck.Gen in
  let n = 12 in
  (* per binding, each id gets one of three values or none *)
  let gen_values strings =
    let value k =
      if strings then Range.Vstr (String.make 1 (Char.chr (97 + k)))
      else Range.Vint (10 * k)
    in
    list_repeat n (int_bound 3) >|= fun cells ->
    List.filter_map
      (fun k ->
        let ids =
          List.mapi (fun i c -> (i + 1, c)) cells
          |> List.filter (fun (_, c) -> c = k)
          |> List.map fst
        in
        let rec spans = function
          | [] -> []
          | id :: rest ->
              let rec run hi = function
                | next :: tl when next = hi + 1 -> run next tl
                | tl -> (hi, tl)
              in
              let hi, tl = run id rest in
              iv id hi :: spans tl
        in
        match spans ids with [] -> None | sp -> Some (value k, sp))
      [ 0; 1; 2 ]
  in
  let gen_range strings =
    if strings then
      oneof
        [
          return Range.full_str;
          map (fun k -> Range.str_eq (String.make 1 (Char.chr (97 + k)))) (int_bound 3);
        ]
    else
      oneof
        [
          map Range.int_le (int_bound 35);
          map Range.int_ge (int_bound 35);
          map2 (fun a b -> Range.int_between (min a b) (max a b)) (int_bound 35) (int_bound 35);
          map (fun k -> Range.int_eq (10 * k)) (int_bound 3);
        ]
  in
  bool >>= fun strings ->
  list_repeat 2 (gen_values strings) >>= fun per_binding ->
  let vt =
    Value_table.create ~obj_cols:[ "x" ]
      (List.concat
         (List.mapi
            (fun b values ->
              List.map
                (fun (value, spans) ->
                  { Value_table.objs = [ ("x", b + 1) ]; value; spans })
                values)
            per_binding))
  in
  let gen_row =
    map3
      (fun objs attrs dense ->
        {
          Sim_table.objs;
          attrs;
          list = Sim_list.of_dense ~max:2. dense;
        })
      (oneofl [ []; [ ("x", 1) ]; [ ("x", 2) ]; [ ("x", 3) ] ])
      (oneof
         [
           return [];
           map (fun r -> [ ("h", r) ]) (gen_range strings);
           map (fun r -> [ ("h", r); ("k", Range.full_int) ]) (gen_range strings);
         ])
      (Helpers.gen_dense ~density:0.5 ~n ~max:2. ())
  in
  list_size (int_range 0 6) gen_row >|= fun rows ->
  (Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[ "h"; "k" ] ~max:2. rows, vt)

let freeze_tests =
  let open Alcotest in
  [
    test_case "a wildcard row pairs with every binding, once each" `Quick
      (fun () ->
        let t =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[ "h" ] ~max:1.
            [ full_row [ ("h", Range.int_ge 15) ] ]
        in
        let visited = ref 0 in
        let got = check_freeze ~visited "wildcard" t ~var:"h" speeds in
        check int "one row per binding" 2 (Sim_table.row_count got);
        (* x = 1: 20 and 30 match, the search lands on 20 and reads to
           the end; x = 2: 20 matches *)
        check int "value rows read" 3 !visited;
        let x1 =
          List.find
            (fun (r : Sim_table.row) -> r.objs = [ ("x", 1) ])
            (Sim_table.rows got)
        in
        check (list (pair interval_testable (float 0.)))
          "the spans of 20 and 30 in one list"
          [ (iv 3 4, 1.); (iv 6 6, 1.) ]
          (Sim_list.entries x1.list));
    test_case "a row binding its object meets that binding only" `Quick
      (fun () ->
        let t =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[ "h" ] ~max:1.
            [
              full_row ~objs:[ ("x", 1) ] [ ("h", Range.int_le 20) ];
              full_row ~objs:[ ("x", 1) ] [ ("h", Range.int_ge 21) ];
              full_row ~objs:[ ("x", 2) ] [];
            ]
        in
        let got = check_freeze "bound" t ~var:"h" speeds in
        (* the two ranges of x = 1 cover all its values: one evaluation *)
        check int "rows" 2 (Sim_table.row_count got));
    test_case "a range that holds no value gives no row" `Quick (fun () ->
        let t =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[ "h" ] ~max:1.
            [
              full_row ~objs:[ ("x", 1) ] [ ("h", Range.int_between 11 19) ];
              full_row [ ("h", Range.int_ge 100) ];
            ]
        in
        let got = check_freeze "no value" t ~var:"h" speeds in
        check int "rows" 0 (Sim_table.row_count got));
    test_case "string-valued attributes" `Quick (fun () ->
        let vt =
          Value_table.create ~obj_cols:[]
            [
              { objs = []; value = Range.Vstr "tense"; spans = [ iv 1 3 ] };
              { objs = []; value = Range.Vstr "calm"; spans = [ iv 4 8 ] };
            ]
        in
        let t =
          Sim_table.create ~obj_cols:[] ~attr_cols:[ "m" ] ~max:1.
            [
              full_row [ ("m", Range.str_eq "calm") ];
              full_row [ ("m", Range.str_eq "angry") ];
            ]
        in
        let got = check_freeze "strings" t ~var:"m" vt in
        check int "rows" 1 (Sim_table.row_count got);
        let any = Sim_table.create ~obj_cols:[] ~attr_cols:[] ~max:1. [ full_row [] ] in
        let got = check_freeze "strings, unconstrained" any ~var:"m" vt in
        check (list (pair interval_testable (float 0.)))
          "every string value" [ (iv 1 8, 1.) ]
          (Sim_list.entries (List.hd (Sim_table.rows got)).list));
    test_case "empty rows with a range survive only with ranges left" `Quick
      (fun () ->
        let empty attrs =
          { Sim_table.objs = [ ("x", 2) ]; attrs; list = Sim_list.empty ~max:1. }
        in
        let t =
          Sim_table.create ~obj_cols:[ "x" ] ~attr_cols:[ "h"; "k" ] ~max:1.
            [
              empty [ ("h", Range.full_int); ("k", Range.int_le 3) ];
              empty [ ("h", Range.full_int) ];
            ]
        in
        let got = check_freeze "empty" t ~var:"h" speeds in
        check
          (list (list (pair string string)))
          "the row keeping a k range"
          [ [ ("k", "[-inf..3]") ] ]
          (List.map
             (fun (r : Sim_table.row) ->
               List.map
                 (fun (k, v) -> (k, Format.asprintf "%a" Range.pp v))
                 r.attrs)
             (Sim_table.rows got)));
    test_case "overlapping spans within a binding are rejected" `Quick
      (fun () ->
        let vt =
          Value_table.create ~obj_cols:[]
            [
              { objs = []; value = Range.Vint 1; spans = [ iv 1 3 ] };
              { objs = []; value = Range.Vint 2; spans = [ iv 3 4 ] };
            ]
        in
        let t = Sim_table.create ~obj_cols:[] ~attr_cols:[] ~max:1. [ full_row [] ] in
        check_raises "overlap"
          (Invalid_argument "Sim_table.freeze_join: one binding's value spans overlap")
          (fun () -> ignore (Sim_table.freeze_join t ~var:"h" vt)));
    Helpers.qtest ~count:300 "freeze_join = pair-by-pair join + key merge"
      (fun (t, vt) ->
        ignore (check_freeze "random" t ~var:"h" vt);
        true)
      (QCheck.make
         ~print:(fun (t, vt) ->
           Format.asprintf "%a@.%a" Sim_table.pp t Value_table.pp vt)
         gen_freeze_case);
  ]

let suites =
  [
    ("interval", interval_tests);
    ("sim", sim_tests);
    ("extent", extent_tests);
    ("sim_list.construction", construction_tests);
    ("sim_list.conjunction", conjunction_tests);
    ("sim_list.next", next_tests);
    ("sim_list.until", until_tests);
    ("sim_list.merge", merge_tests);
    ("sim_list.kernels", kernel_tests);
    ("sim_list.layout", layout_tests);
    ("sim_list.gather", gather_tests);
    ("sim_list.threads", thread_tests);
    ("range", range_tests);
    ("sim_table", table_tests);
    ("sim_table.freeze", freeze_tests);
  ]
