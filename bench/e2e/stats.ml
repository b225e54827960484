(* Order statistics for the end-to-end benchmark: nearest-rank
   percentiles within one run, and median / quartile spread across
   repeated runs.  Pure, so the unit tests pin every rounding rule. *)

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] percent of the
   samples at or below it, i.e. the ceil(p/100 * n)-th order statistic. *)
let rank ~n p =
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
  max 1 (min n r)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  sorted.(rank ~n p - 1)

(* A tail percentile is only reported when at least ten samples lie
   beyond it; below that it is a reading of the few slowest samples,
   not of the distribution. *)
let min_beyond = 10

let supported ~n p = n > 0 && n - rank ~n p >= min_beyond

let percentile sorted p =
  if supported ~n:(Array.length sorted) p then Some (nearest_rank sorted p)
  else None

(* The highest of [candidates] the sample supports, with its value. *)
let highest_supported ?(candidates = [ 99.9; 99.; 95.; 90.; 50. ]) sorted =
  List.find_map
    (fun p -> Option.map (fun v -> (p, v)) (percentile sorted p))
    candidates

let median values =
  match sorted_copy (Array.of_list values) with
  | [||] -> invalid_arg "Stats.median: no values"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   (the default "exclusive" method), so the spreads printed here are the
   ones an external check computes from the same values. *)
let quartiles values =
  let a = sorted_copy (Array.of_list values) in
  match Array.length a with
  | 0 -> invalid_arg "Stats.quartiles: no values"
  | 1 -> (a.(0), a.(0), a.(0))
  | ld ->
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 2, q 3)

(* Inter-quartile range as a share of the median: the run-to-run spread
   a metric's bound is compared against. *)
let iqr_share values =
  let q1, _, q3 = quartiles values in
  let med = median values in
  if med = 0. then if q3 = q1 then 0. else Float.infinity
  else (q3 -. q1) /. Float.abs med

type direction = Lower | Higher

(* How much worse [candidate] is than [base], as a share of [base]:
   positive when worse, whichever way "better" points. *)
let worsening ~direction ~base candidate =
  if base = 0. then if candidate = 0. then 0. else Float.infinity
  else
    match direction with
    | Lower -> (candidate -. base) /. Float.abs base
    | Higher -> (base -. candidate) /. Float.abs base

let within ~direction ~bound ~base candidate =
  worsening ~direction ~base candidate <= bound
