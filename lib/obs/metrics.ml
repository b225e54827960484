(* Fixed log-spaced histogram buckets, √10 apart (two per decade) from
   1µs to ~1h when read as seconds — wide enough that both a cache hit
   (~100ns, below the first bound) and a giant batched scan land inside
   the range, coarse enough that a histogram is 21 integers.  The bounds
   are literals, not computed, so the Prometheus [le] labels are stable
   strings.  Every histogram shares them: allocation-delta histograms
   (words) read the same bounds as dimensionless counts, which keeps
   [observe] allocation-free and the exposition uniform. *)
let bucket_bounds =
  [|
    1e-06; 3.16e-06; 1e-05; 3.16e-05; 1e-04; 3.16e-04; 1e-03; 3.16e-03;
    1e-02; 3.16e-02; 0.1; 0.316; 1.; 3.16; 10.; 31.6; 100.; 316.; 1000.;
    3160.;
  |]

let bucket_count = Array.length bucket_bounds + 1 (* + overflow (+Inf) *)

(* a loop, not a local recursive function: that would be a closure over
   [v], allocated on every observation *)
let bucket_index v =
  let i = ref 0 in
  while !i < Array.length bucket_bounds && not (v <= bucket_bounds.(!i)) do
    incr i
  done;
  !i

(* The float aggregates sit in an all-float record, which OCaml stores
   unboxed: as fields of the mixed [hist] record each observation would
   box three fresh floats into a long-lived record. *)
type hfloats = { mutable hsum : float; mutable hmin : float; mutable hmax : float }

type hist = {
  mutable hcount : int;
  hf : hfloats;
  hbuckets : int array; (* per-bucket (non-cumulative) counts *)
}

type cell = C of int ref | G of float ref | H of hist

(* One mutex, same rationale as Trace: every update is a handful of
   writes against work that dwarfs it (a query, a pool batch, a cache
   probe). *)
type t = { mutex : Mutex.t; cells : (string, cell) Hashtbl.t }

let create () = { mutex = Mutex.create (); cells = Hashtbl.create 32 }

let kind_error name =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S already registered with another kind" name)

(* Pre-registration (PR 4's cache.hits/misses lesson, generalised): a
   series that only appears once traffic exercises its code path makes
   the first scrapes unstable — dashboards and goldens want every series
   present from scrape one.  Declaring is idempotent and kind-checked
   like any other touch. *)
let declare_counter t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (C _) -> ()
      | Some _ -> kind_error name
      | None -> Hashtbl.add t.cells name (C (ref 0)))

let declare_gauge t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (G _) -> ()
      | Some _ -> kind_error name
      | None -> Hashtbl.add t.cells name (G (ref 0.)))

let declare_histogram t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (H _) -> ()
      | Some _ -> kind_error name
      | None ->
          Hashtbl.add t.cells name
            (H
               {
                 hcount = 0;
                 hf =
                   { hsum = 0.; hmin = Float.infinity; hmax = Float.neg_infinity };
                 hbuckets = Array.make bucket_count 0;
               }))

let incr t ?(by = 1) name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (C r) -> r := !r + by
      | Some _ -> kind_error name
      | None -> Hashtbl.add t.cells name (C (ref by)))

let set_gauge t name v =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.cells name with
      | Some (G r) -> r := v
      | Some _ -> kind_error name
      | None -> Hashtbl.add t.cells name (G (ref v)))

(* No closure and no option on the hot path: an observation into an
   existing histogram allocates nothing. *)
let observe_locked t name v =
  match Hashtbl.find t.cells name with
  | H h ->
      let f = h.hf in
      h.hcount <- h.hcount + 1;
      f.hsum <- f.hsum +. v;
      if v < f.hmin then f.hmin <- v;
      if v > f.hmax then f.hmax <- v;
      let i = bucket_index v in
      h.hbuckets.(i) <- h.hbuckets.(i) + 1
  | C _ | G _ -> kind_error name
  | exception Not_found ->
      let hbuckets = Array.make bucket_count 0 in
      hbuckets.(bucket_index v) <- 1;
      Hashtbl.add t.cells name
        (H { hcount = 1; hf = { hsum = v; hmin = v; hmax = v }; hbuckets })

let observe t name v =
  Mutex.lock t.mutex;
  match observe_locked t name v with
  | () -> Mutex.unlock t.mutex
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) array;
      (* (upper bound, count in that bucket); the last bound is
         [infinity], the overflow bucket *)
}

type value = Counter of int | Gauge of float | Histogram of histogram

let snapshot t =
  let items =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.fold
          (fun name cell acc ->
            let v =
              match cell with
              | C r -> Counter !r
              | G r -> Gauge !r
              | H h ->
                  let buckets =
                    Array.init bucket_count (fun i ->
                        ( (if i < Array.length bucket_bounds then
                             bucket_bounds.(i)
                           else infinity),
                          h.hbuckets.(i) ))
                  in
                  Histogram
                    {
                      count = h.hcount;
                      sum = h.hf.hsum;
                      min = h.hf.hmin;
                      max = h.hf.hmax;
                      buckets;
                    }
            in
            (name, v) :: acc)
          t.cells [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) items

let find t name = List.assoc_opt name (snapshot t)

let counter_value t name =
  match find t name with Some (Counter n) -> n | _ -> 0

let counters t =
  let items =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.fold
          (fun name cell acc ->
            match cell with C r -> (name, !r) :: acc | G _ | H _ -> acc)
          t.cells [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) items

(* One lock on [into] for all of [src]'s counters, so a scrape sees all
   of a query's counts or none of them. *)
let merge ~into src =
  Mutex.protect src.mutex (fun () ->
      Mutex.protect into.mutex (fun () ->
          Hashtbl.iter
            (fun name cell ->
              match (cell, Hashtbl.find_opt into.cells name) with
              | C r, Some (C r') -> r' := !r' + !r
              | C r, None -> Hashtbl.add into.cells name (C (ref !r))
              | C _, Some _ -> kind_error name
              | (G _ | H _), _ -> ())
            src.cells))

let clear t = Mutex.protect t.mutex (fun () -> Hashtbl.reset t.cells)

let pp_value ppf = function
  | Counter n -> Format.fprintf ppf "%d" n
  | Gauge v -> Format.fprintf ppf "%g" v
  | Histogram { count; sum; min; max; buckets = _ } ->
      (* a declared-but-never-observed histogram has min/max at the
         infinities; render the empty series as zeros *)
      let min = if count = 0 then 0. else min
      and max = if count = 0 then 0. else max in
      Format.fprintf ppf "count %d  sum %.6f  min %.6f  mean %.6f  max %.6f"
        count sum min
        (if count = 0 then 0. else sum /. float_of_int count)
        max

let pp ppf t =
  Format.fprintf ppf "@[<v>%-32s %s@," "Metric" "Value";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-32s %a@," name pp_value v)
    (snapshot t);
  Format.fprintf ppf "@]"
