(* Unit tests of the benchmark's order statistics: nearest-rank
   percentiles, the ten-samples-beyond rule, and quartiles that match
   Python's statistics.quantiles(n=4). *)

open E2e_stats

let close = Alcotest.float 1e-12
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let a = ramp 10 in
  Alcotest.check close "p50 of 1..10" 5. (Stats.nearest_rank a 50.);
  Alcotest.check close "p90 of 1..10" 9. (Stats.nearest_rank a 90.);
  Alcotest.check close "p100 of 1..10" 10. (Stats.nearest_rank a 100.);
  Alcotest.check close "p0 clamps to the minimum" 1. (Stats.nearest_rank a 0.);
  Alcotest.check close "p99 of 1..1000" 990.
    (Stats.nearest_rank (ramp 1000) 99.);
  Alcotest.check close "p99.9 of 1..20000" 19980.
    (Stats.nearest_rank (ramp 20000) 99.9)

let test_support () =
  let opt = Alcotest.(option close) in
  Alcotest.check opt "p99 needs 1000 samples" (Some 990.)
    (Stats.percentile (ramp 1000) 99.);
  Alcotest.check opt "999 samples leave 9 beyond p99" None
    (Stats.percentile (ramp 999) 99.);
  Alcotest.check opt "p50 of 20 has 10 beyond" (Some 10.)
    (Stats.percentile (ramp 20) 50.);
  Alcotest.check opt "p50 of 19 is unsupported" None
    (Stats.percentile (ramp 19) 50.);
  Alcotest.check opt "no samples" None (Stats.percentile [||] 50.);
  Alcotest.(check (option (pair close close)))
    "highest supported of 500 samples is p95" (Some (95., 475.))
    (Stats.highest_supported (ramp 500))

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7. (Stats.median [ 7. ])

let triple = Alcotest.(triple close close close)

(* expected values computed with Python's statistics.quantiles(v, n=4) *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.to_list (ramp 10)));
  Alcotest.check triple "unsorted 1..4" (1.25, 2.5, 3.75)
    (Stats.quartiles [ 4.; 2.; 1.; 3. ]);
  Alcotest.check triple "two values extrapolate" (0.75, 1.5, 2.25)
    (Stats.quartiles [ 2.; 1. ]);
  Alcotest.check triple "1..5" (1.5, 3., 4.5)
    (Stats.quartiles [ 1.; 2.; 3.; 4.; 5. ])

let test_iqr_share () =
  Alcotest.check close "1..10" ((8.25 -. 2.75) /. 5.5)
    (Stats.iqr_share (Array.to_list (ramp 10)));
  Alcotest.check close "constant" 0. (Stats.iqr_share [ 3.; 3.; 3.; 3. ])

let test_bounds () =
  let b = Alcotest.bool in
  Alcotest.check b "latency +9% inside 10%" true
    (Stats.within ~direction:Stats.Lower ~bound:0.1 ~base:100. 109.);
  Alcotest.check b "latency +11% outside 10%" false
    (Stats.within ~direction:Stats.Lower ~bound:0.1 ~base:100. 111.);
  Alcotest.check b "throughput -11% outside 10%" false
    (Stats.within ~direction:Stats.Higher ~bound:0.1 ~base:100. 89.);
  Alcotest.check b "throughput gain is inside" true
    (Stats.within ~direction:Stats.Higher ~bound:0.1 ~base:100. 150.)

let () =
  Alcotest.run "bench-e2e-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_support;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "iqr share" `Quick test_iqr_share;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
    ]
