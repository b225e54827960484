type entry = Interval.t * float

(* Struct of arrays: entry [i] covers [[bounds.(2i), bounds.(2i+1)]] at
   value [vals.(i)].  Both arrays hold exactly the entries (never slack),
   and [vals] is a flat float array, so a list of n entries is 3n + 8
   words: 2n + 1 for [bounds], n + 1 for [vals], 4 for the record and 2
   for the boxed [max].  Every empty list shares the two empty arrays. *)
type t = { max : float; bounds : int array; vals : float array }

let float_tolerance = 1e-9
let empty_bounds : int array = [||]
let empty_vals : float array = [||]
let length t = Array.length t.vals
let[@inline] lo t i = t.bounds.(2 * i)
let[@inline] hi t i = t.bounds.((2 * i) + 1)
let value t i = t.vals.(i)
let max_sim t = t.max
let is_empty t = length t = 0
let words t = (3 * length t) + 8

(* The top-k ranking, written here only: entry [i] of [a], starting at
   [alo] once shifted, ranks above entry [j] of [b], starting at [blo],
   when its value is larger or, equal, it starts earlier.  The values
   are compared where they lie; a call returning one would box it. *)
let[@inline] ranks_above a i ~lo:alo b j ~lo:blo =
  let va = a.vals.(i) and vb = b.vals.(j) in
  va > vb || (va = vb && alo < blo)

let next_above t ~off ~from u j ~lo:ulo =
  let n = length t in
  let i = ref from in
  while !i < n && not (ranks_above t !i ~lo:(lo t !i + off) u j ~lo:ulo) do
    incr i
  done;
  !i

let negative_max () = invalid_arg "Sim_list.of_entries: negative max"

let exceeds v max =
  invalid_arg
    (Printf.sprintf "Sim_list.of_entries: actual %g exceeds max %g" v max)

let tolerance max = float_tolerance *. Float.max 1. (Float.abs max)

let empty ~max =
  if max < 0. then negative_max ();
  { max; bounds = empty_bounds; vals = empty_vals }

(* --- canonical output in one pass -------------------------------------

   Every kernel walks its canonical inputs once, left to right, and
   emits its output pieces in id order into a buffer of its own, which
   [finish] trims to the exact entry count.  A buffer is created by the
   call that fills it and never outlives it: the server's worker threads
   share one domain and can preempt each other inside a kernel, so a
   buffer kept between calls would be written by two of them.  The push
   keeps the buffer canonical as it goes: empty and non-positive pieces
   are dropped, values are clamped to [max], and a piece that abuts the
   previous one with the same value extends it.  The result then needs
   no sort and no second pass.

   A buffer's slack is garbage the moment the kernel returns, and a
   large buffer lands in the major heap and stays until a major cycle
   ends.  So [merge2], whose bound is twice its input, sweeps twice:
   first into a [counter], which keeps only the last piece (all [push]
   reads) and counts, then into arrays of the exact size ([exactly]). *)

type buf = {
  mutable bs : int array;
  mutable vs : float array;
  mutable n : int;
  counting : bool;  (* one slot, overwritten: count the pieces only *)
}

let buf cap =
  {
    bs = Array.make (2 * cap) 0;
    vs = Array.make cap 0.;
    n = 0;
    counting = false;
  }

let counter () =
  { bs = Array.make 2 0; vs = Array.make 1 0.; n = 0; counting = true }

let grow o need =
  let cap = ref (Int.max 1 (Array.length o.vs)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let bs = Array.make (2 * !cap) 0 and vs = Array.make !cap 0. in
  Array.blit o.bs 0 bs 0 (2 * o.n);
  Array.blit o.vs 0 vs 0 o.n;
  o.bs <- bs;
  o.vs <- vs

let reserve o k = if o.n + k > Array.length o.vs then grow o (o.n + k)

(* Inlined, so a value stays unboxed from the kernel's arithmetic to
   the buffer. *)
let[@inline] push o ~max lo hi v =
  if lo <= hi && v > 0. then begin
    let v = if v > max then max else v and n = o.n in
    let last = if o.counting then 0 else n - 1 in
    if n > 0 && o.vs.(last) = v && o.bs.((2 * last) + 1) + 1 = lo then
      o.bs.((2 * last) + 1) <- hi
    else begin
      let at = if o.counting then 0 else n in
      if at = Array.length o.vs then grow o (n + 1);
      o.bs.(2 * at) <- lo;
      o.bs.((2 * at) + 1) <- hi;
      o.vs.(at) <- v;
      o.n <- n + 1
    end
  end

let finish ~max o =
  let n = o.n in
  if n = 0 then { max; bounds = empty_bounds; vals = empty_vals }
  else if n = Array.length o.vs then { max; bounds = o.bs; vals = o.vs }
  else { max; bounds = Array.sub o.bs 0 (2 * n); vals = Array.sub o.vs 0 n }

(* [fill o] pushes a kernel's pieces into [o] *)
let exactly ~max fill =
  let c = counter () in
  fill c;
  let o = buf c.n in
  fill o;
  finish ~max o

(* --- building from pieces --------------------------------------------- *)

(* [n] pieces in [bs]/[vs] that are canonical already (the usual case:
   decoded lists, workload builders) are kept as they are. *)
let canonical ~max bs vs n =
  let rec go i =
    i >= n
    || vs.(i) > 0.
       && vs.(i) <= max
       && (i + 1 = n
          || (let hi = bs.((2 * i) + 1) and next_lo = bs.((2 * i) + 2) in
              hi < next_lo && not (vs.(i) = vs.(i + 1) && hi + 1 = next_lo)))
       && go (i + 1)
  in
  go 0

(* each piece ends before the next begins: sorted and disjoint *)
let ordered bs n =
  let rec go i =
    i + 1 >= n || (bs.((2 * i) + 1) < bs.((2 * i) + 2) && go (i + 1))
  in
  go 0

(* The one canonicalising path behind [of_entries] and [scale_max]:
   [bs]/[vs] are the caller's fresh arrays, kept as they are when
   canonical and reused as scratch otherwise. *)
let of_arrays ~max bs vs =
  if max < 0. then negative_max ();
  let n = Array.length vs in
  if n = 0 then empty ~max
  else if canonical ~max bs vs n then { max; bounds = bs; vals = vs }
  else begin
    (* drop the non-positive pieces in place *)
    let m = ref 0 in
    for i = 0 to n - 1 do
      if vs.(i) > 0. then begin
        bs.(2 * !m) <- bs.(2 * i);
        bs.((2 * !m) + 1) <- bs.((2 * i) + 1);
        vs.(!m) <- vs.(i);
        incr m
      end
    done;
    let m = !m in
    let bs, vs =
      if ordered bs m then (bs, vs)
      else begin
        let perm = Array.init m Fun.id in
        Array.stable_sort
          (fun i j ->
            match Int.compare bs.(2 * i) bs.(2 * j) with
            | 0 -> Int.compare bs.((2 * i) + 1) bs.((2 * j) + 1)
            | c -> c)
          perm;
        let sbs = Array.make (2 * m) 0 and svs = Array.make m 0. in
        Array.iteri
          (fun k i ->
            sbs.(2 * k) <- bs.(2 * i);
            sbs.((2 * k) + 1) <- bs.((2 * i) + 1);
            svs.(k) <- vs.(i))
          perm;
        let piece k =
          Interval.to_string (Interval.make sbs.(2 * k) sbs.((2 * k) + 1))
        in
        for k = 0 to m - 2 do
          if sbs.((2 * k) + 1) >= sbs.((2 * k) + 2) then
            invalid_arg
              (Printf.sprintf "Sim_list: overlapping intervals %s and %s"
                 (piece k) (piece (k + 1)))
        done;
        (sbs, svs)
      end
    in
    let tol = tolerance max in
    let o = buf m in
    for i = 0 to m - 1 do
      let v = vs.(i) in
      if v > max +. tol then exceeds v max;
      push o ~max bs.(2 * i) bs.((2 * i) + 1) v
    done;
    finish ~max o
  end

let of_entries ~max entries =
  let n = List.length entries in
  let bs = Array.make (2 * n) 0 and vs = Array.make n 0. in
  List.iteri
    (fun i (iv, v) ->
      bs.(2 * i) <- Interval.lo iv;
      bs.((2 * i) + 1) <- Interval.hi iv;
      vs.(i) <- v)
    entries;
  of_arrays ~max bs vs

let entries t =
  List.init (length t) (fun i -> (Interval.make (lo t i) (hi t i), t.vals.(i)))

let covered t =
  let c = ref 0 in
  for i = 0 to length t - 1 do
    c := !c + hi t i - lo t i + 1
  done;
  !c

(* binary search for the last entry starting at or before [id] *)
let value_at t id =
  let rec go a b =
    if a < b then
      let m = (a + b) / 2 in
      if lo t m <= id then go (m + 1) b else go a m
    else if a > 0 && id <= hi t (a - 1) then t.vals.(a - 1)
    else 0.
  in
  go 0 (length t)

let sim_at t id = Sim.make ~actual:(value_at t id) ~max:t.max
let fraction_at t id = if t.max = 0. then 0. else value_at t id /. t.max

let equal a b =
  let n = length a in
  let rec same i =
    i >= n
    || a.vals.(i) = b.vals.(i)
       && lo a i = lo b i
       && hi a i = hi b i
       && same (i + 1)
  in
  a.max = b.max && n = length b && same 0

let pp ppf t =
  let pp_entry ppf (iv, v) = Format.fprintf ppf "%a:%g" Interval.pp iv v in
  Format.fprintf ppf "@[<h>{max=%g;@ %a}@]" t.max
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_entry)
    (entries t)

(* --- the two-pointer sweep ------------------------------------------ *)

type conj_mode = Weighted_sum | Min_fraction | Product_fraction

(* What [merge2] emits where [a] reads [va] and [b] reads [vb] (0. where
   a side has no entry): a conjunction under one of the modes, the
   maximum, or [va] masked by [b].  A variant rather than a closure, so
   the values never leave unboxed floats. *)
type combine = Conj of conj_mode | Max | Mask

let[@inline] frac max v = if max = 0. then 1. else v /. max

let[@inline] combine op ~ma ~mb ~m va vb =
  match op with
  | Conj Weighted_sum -> va +. vb
  | Conj Min_fraction ->
      let fa = frac ma va and fb = frac mb vb in
      (if fa <= fb then fa else fb) *. m
  | Conj Product_fraction -> frac ma va *. frac mb vb *. m
  | Max -> if va >= vb then va else vb
  | Mask -> if vb > 0. then va else 0.

(* One walk over both canonical lists by index, cutting at each entry
   boundary as it comes: the [combine] of the two values is emitted for
   every stretch where at least one side is non-zero.  Stretches where
   both are zero are skipped (every [combine] of 0. and 0. is 0.).
   [pos] is the first id not yet swept; entries [ia..] of [a] and
   [ib..] of [b] end at or after it.  This is the kernel behind every
   conjunction and max-merge.  A stretch ends at an entry's end or just
   before one's start, so the output can reach 2(|a| + |b|) entries:
   it counts them first ([exactly]). *)
let merge2 ~max op a b =
  let ma = a.max and mb = b.max in
  let na = length a and nb = length b in
  exactly ~max @@ fun o ->
  let pos = ref min_int and ia = ref 0 and ib = ref 0 in
  while !ia < na || !ib < nb do
    let i = !ia and j = !ib in
    if i < na && j < nb then begin
      let ahi = hi a i and bhi = hi b j in
      let alo = Int.max !pos (lo a i) and blo = Int.max !pos (lo b j) in
      let lo = Int.min alo blo in
      let a_in = alo = lo and b_in = blo = lo in
      let hi =
        Int.min (if a_in then ahi else alo - 1) (if b_in then bhi else blo - 1)
      in
      push o ~max lo hi
        (combine op ~ma ~mb ~m:max
           (if a_in then a.vals.(i) else 0.)
           (if b_in then b.vals.(j) else 0.));
      pos := hi + 1;
      if hi = ahi then ia := i + 1;
      if hi = bhi then ib := j + 1
    end
    else if i < na then begin
      let hi = hi a i in
      push o ~max (Int.max !pos (lo a i)) hi
        (combine op ~ma ~mb ~m:max a.vals.(i) 0.);
      pos := hi + 1;
      ia := i + 1
    end
    else begin
      let hi = hi b j in
      push o ~max (Int.max !pos (lo b j)) hi
        (combine op ~ma ~mb ~m:max 0. b.vals.(j));
      pos := hi + 1;
      ib := j + 1
    end
  done

(* --- the paper's operations ---------------------------------------- *)

let conjunction_mode mode a b = merge2 ~max:(a.max +. b.max) (Conj mode) a b
let conjunction a b = conjunction_mode Weighted_sum a b

let conjunction_many = function
  | [] -> invalid_arg "Sim_list.conjunction_many: empty"
  | first :: rest -> List.fold_left conjunction first rest

(* Id [i] reads its successor: entry [[lo, hi]] moves to [[lo-1, hi-1]],
   cut where it would cross into an earlier extent, which drops the last
   id of every extent. *)
let next_shift ~extents t =
  let max = t.max in
  (* an entry gains a piece only where it crosses an extent end *)
  let o = buf (length t + Extent.count extents) in
  (* entry [i], from [lo] on *)
  let rec piece i lo =
    let k = Extent.index_containing extents lo and hi = hi t i in
    let ext_hi = Extent.last_id extents k in
    push o ~max
      (Int.max (lo - 1) (Extent.first_id extents k))
      (Int.min hi ext_hi - 1) t.vals.(i);
    if hi > ext_hi then piece i (ext_hi + 1)
  in
  for i = 0 to length t - 1 do
    piece i (lo t i)
  done;
  finish ~max o

let default_threshold = 0.5

(* the first entry of [h] from [i] on that ends after [id] *)
let rec drop_through h id i =
  if i < length h && hi h i <= id then drop_through h id (i + 1) else i

(* h's own value at every id of [[pos, upto]] (the until semantics allow
   [u'' = u]), from entry [i] on.  Returns the first entry that reaches
   past [upto]. *)
let rec self o ~max h pos upto i =
  if i < length h && lo h i <= upto then begin
    let hi = hi h i in
    push o ~max (Int.max pos (lo h i)) (Int.min hi upto) h.vals.(i);
    if hi > upto then i else self o ~max h pos upto (i + 1)
  end
  else i

(* Inside a corridor [[b, e]] whose window ends at [w] (e or e+1): at
   id [i] the best h value in [[i, w]].  Entries [i0..] of [h] end at
   or after [b]; the window is those that start by [w].  It is read
   right to left by index: there the running maximum only grows, so
   each larger value closes the run to its right.  The window of k
   entries closes at most k + 1 runs, which are written from the far
   end of k + 1 reserved slots down and then moved left behind the
   output with [push], so they come out coalesced, left to right. *)
let[@inline] put o k lo hi v =
  o.bs.(2 * k) <- lo;
  o.bs.((2 * k) + 1) <- hi;
  o.vs.(k) <- v

let suffix_max o ~max h ~b ~e ~w i0 =
  let j = ref i0 in
  while !j < length h && lo h !j <= w do
    incr j
  done;
  let top = o.n + (!j - i0) + 1 in
  reserve o (top - o.n);
  (* runs fill slots [k, top); [best] holds over [[?, run_hi]] *)
  let k = ref top and run_hi = ref e and best = ref 0. in
  for i = !j - 1 downto i0 do
    let v = h.vals.(i) in
    if v > !best then begin
      let hi = Int.min w (hi h i) in
      if !best > 0. && hi < !run_hi then begin
        decr k;
        put o !k (hi + 1) !run_hi !best
      end;
      run_hi := Int.min hi e;
      best := v
    end
  done;
  if !best > 0. && b <= !run_hi then begin
    decr k;
    put o !k b !run_hi !best
  end;
  (* slot [s] >= the output's end at every step, so nothing unread is
     overwritten *)
  for s = !k to top - 1 do
    push o ~max o.bs.(2 * s) o.bs.((2 * s) + 1) o.vs.(s)
  done

(* The run of ids [[b, e]] cut at extent ends into corridors: h's own
   value up to each corridor, the suffix maximum inside it.  Returns
   the first entry of [h] not yet consumed. *)
let rec corridors o ~max ~extents h pos b e i =
  if i >= length h then i
  else begin
    let ext_hi = Extent.last_of extents b in
    let ce = Int.min e ext_hi in
    let i = self o ~max h pos (b - 1) i in
    suffix_max o ~max h ~b ~e:ce ~w:(Int.min (ce + 1) ext_hi) i;
    let i = drop_through h ce i in
    if ce < e then corridors o ~max ~extents h (ce + 1) (ce + 1) e i else i
  end

let until_merge ?(threshold = default_threshold) ~extents g h =
  let max = h.max in
  let above i = g.max > 0. && g.vals.(i) /. g.max >= threshold in
  let ng = length g and nh = length h in
  let o = buf nh in
  (* the last id of the above-threshold run that reaches [e], and the
     first g entry past it *)
  let rec run_end e j =
    if j < ng && lo g j = e + 1 && above j then run_end (hi g j) (j + 1)
    else (e, j)
  in
  let rec go pos ig ih =
    if ih < nh then
      if ig >= ng then ignore (self o ~max h pos max_int ih)
      else if not (above ig) then go pos (ig + 1) ih
      else
        let e, ig' = run_end (hi g ig) (ig + 1) in
        go (e + 1) ig' (corridors o ~max ~extents h pos (lo g ig) e ih)
  in
  go min_int 0 0;
  finish ~max o

(* [true until t]: every extent is one corridor *)
let eventually ~extents t =
  (* the runs of one extent's window take the slots it reserves: one
     more than its entries *)
  let o = buf (length t + Extent.count extents) in
  ignore
    (corridors o ~max:t.max ~extents t min_int 1 (Extent.total extents) 0);
  finish ~max:t.max o

let check_same_max ?(fn = "merge_max") = function
  | [] -> invalid_arg (Printf.sprintf "Sim_list.%s: empty" fn)
  | first :: rest ->
      List.iter
        (fun l ->
          if l.max <> first.max then
            invalid_arg (Printf.sprintf "Sim_list.%s: differing maxima" fn))
        rest;
      first.max

let max2 a b = merge2 ~max:a.max Max a b

(* The list holding [arr.(i)] at id [first + i]: one entry per run of
   equal positive values. *)
let of_dense_at ~max ~first arr =
  if max < 0. then negative_max ();
  let tol = tolerance max in
  let n = Array.length arr in
  (* one entry per run of equal positive values at most (clamping can
     only merge runs): a compare-only scan sizes the buffer *)
  let runs = ref 0 and prev = ref 0. in
  for i = 0 to n - 1 do
    let v = arr.(i) in
    if v > 0. && v <> !prev then incr runs;
    prev := v
  done;
  let o = buf !runs in
  let i = ref 0 in
  while !i < n do
    let v = arr.(!i) in
    if v > 0. then begin
      let j = ref !i in
      while !j + 1 < n && arr.(!j + 1) = v do
        incr j
      done;
      if v > max +. tol then exceeds v max;
      push o ~max (first + !i) (first + !j) v;
      i := !j + 1
    end
    else incr i
  done;
  finish ~max o

(* --- the k-way maximum ------------------------------------------------

   [merge_max] takes the pointwise maximum of k canonical lists in one
   pass over their n entries, with no intermediate list: a dense pass
   over their span when the span and the ids they cover are within
   [4 (1 + log2 k)] times n ([dense_max], linear in n), else a sweep
   over their entry boundaries ([sweep_max]), which a handful of entries
   spread over a large level calls for.  The sweep costs ~17 (1 + log2
   k) ns per entry and the dense pass ~2 ns per id of span and cover;
   the factor is where the two meet on measured inputs (EXPERIMENTS,
   "The columnar scorer").

   The sweep: list [l]'s current entry is [cur.(l)], open or not, and
   its value [cv.(l)]; the list waits in a min-heap keyed by its next
   boundary:
   the entry's start while it is closed, the id after its end while it
   is open.  The open lists sit in a max-heap by value, [at] placing
   each.  At each boundary every list with an event there opens or
   closes its entry, and the highest open value holds up to the next
   boundary.  O(n log k) for n entries in k lists, with no intermediate
   list; [push] coalesces what it emits.  The heaps are arrays of k,
   sifted by the functions below, which allocate nothing. *)

(* the event heap: keys [ek], lists [el], [n] of them *)
let rec sift_event ek el n i =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && ek.(c + 1) < ek.(c) then c + 1 else c in
    if ek.(c) < ek.(i) then begin
      let k = ek.(i) and l = el.(i) in
      ek.(i) <- ek.(c);
      el.(i) <- el.(c);
      ek.(c) <- k;
      el.(c) <- l;
      sift_event ek el n c
    end
  end

(* the open heap: lists [h] by value [cv], [at.(l)] the slot of [l] *)
let swap_open h at i j =
  let a = h.(i) and b = h.(j) in
  h.(i) <- b;
  h.(j) <- a;
  at.(b) <- i;
  at.(a) <- j

let rec sift_up (cv : float array) h at i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if cv.(h.(i)) > cv.(h.(p)) then begin
      swap_open h at i p;
      sift_up cv h at p
    end
  end

let rec sift_down (cv : float array) h at n i =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && cv.(h.(c + 1)) > cv.(h.(c)) then c + 1 else c in
    if cv.(h.(c)) > cv.(h.(i)) then begin
      swap_open h at i c;
      sift_down cv h at n c
    end
  end

let sweep_max ~max ls =
  let k = Array.length ls in
  let cur = Array.make k 0 in
  let cv = Array.init k (fun l -> ls.(l).vals.(0)) in
  let ek = Array.init k (fun l -> lo ls.(l) 0) in
  let el = Array.init k Fun.id in
  let n_events = ref k in
  for i = (k / 2) - 1 downto 0 do
    sift_event ek el k i
  done;
  let h = Array.make k 0 and at = Array.make k (-1) and n_open = ref 0 in
  let o = buf (Array.fold_left (fun n l -> n + length l) 0 ls) in
  while !n_events > 0 do
    let pos = ek.(0) in
    while !n_events > 0 && ek.(0) = pos do
      let l = el.(0) in
      if at.(l) < 0 then begin
        let n = !n_open in
        h.(n) <- l;
        at.(l) <- n;
        n_open := n + 1;
        sift_up cv h at n;
        ek.(0) <- hi ls.(l) cur.(l) + 1
      end
      else begin
        (* the entry ended at [pos - 1] *)
        let i = at.(l) and n = !n_open - 1 in
        swap_open h at i n;
        at.(l) <- -1;
        n_open := n;
        if i < n then begin
          sift_up cv h at i;
          sift_down cv h at n at.(h.(i))
        end;
        let e = cur.(l) + 1 in
        cur.(l) <- e;
        if e = length ls.(l) then begin
          decr n_events;
          ek.(0) <- ek.(!n_events);
          el.(0) <- el.(!n_events)
        end
        else begin
          ek.(0) <- lo ls.(l) e;
          cv.(l) <- ls.(l).vals.(e)
        end
      end;
      sift_event ek el !n_events 0
    done;
    if !n_open > 0 then push o ~max pos (ek.(0) - 1) cv.(h.(0))
  done;
  finish ~max o

(* Where the lists' span and the ids they cover are within a few times
   their entries, a dense pass over the span costs less than the sweep
   and is as linear in the entries: each entry raises the ids it covers,
   and [of_dense_at] reads the runs back. *)
let dense_max ~max ls ~first ~last =
  let a = Array.make (last - first + 1) 0. in
  Array.iter
    (fun l ->
      for i = 0 to length l - 1 do
        let v = l.vals.(i) in
        for id = lo l i - first to hi l i - first do
          if v > a.(id) then a.(id) <- v
        done
      done)
    ls;
  of_dense_at ~max ~first a

let merge_max lists =
  let max = check_same_max lists in
  match List.filter (fun l -> length l > 0) lists with
  | [] -> List.hd lists
  | [ l ] -> l
  | nonempty ->
      let ls = Array.of_list nonempty in
      let entries = ref 0 and ids = ref 0 in
      let first = ref max_int and last = ref min_int in
      Array.iter
        (fun l ->
          let n = length l in
          entries := !entries + n;
          ids := !ids + covered l;
          first := Int.min !first (lo l 0);
          last := Int.max !last (hi l (n - 1)))
        ls;
      let k = float_of_int (Array.length ls) in
      if
        float_of_int (!last - !first + 1 + !ids)
        <= 4. *. (1. +. Float.log2 k) *. float_of_int !entries
      then
        dense_max ~max ls ~first:!first ~last:!last
      else sweep_max ~max ls

let merge_max_pairwise lists =
  let _ = check_same_max lists in
  match lists with
  | [] -> assert false
  | first :: rest -> List.fold_left max2 first rest

let restrict t spans =
  let n = List.length spans in
  let bounds = Array.make (2 * n) 0 in
  List.iteri
    (fun i iv ->
      bounds.(2 * i) <- Interval.lo iv;
      bounds.((2 * i) + 1) <- Interval.hi iv)
    spans;
  let indicator = { max = 1.; bounds; vals = Array.make n 1. } in
  merge2 ~max:t.max Mask t indicator

let scale_max t ~max =
  if max >= 0. && Array.for_all (fun v -> v <= max) t.vals then { t with max }
  else of_arrays ~max (Array.copy t.bounds) (Array.copy t.vals)

(* --- concatenating shifted lists -------------------------------------- *)

let concat_max parts = check_same_max ~fn:"concat" (List.map fst parts)

(* The last entry of an earlier list, [[plo, phi]] at [pv], and the
   first of the following non-empty one, [[nlo, nhi]] at [nv], both
   shifted: they must be in order and disjoint, and coalesce when they
   abut with equal values.  The only check [concat] needs — inside each
   list the entries are canonical already. *)
let joins ~plo ~phi ~pv ~nlo ~nhi ~nv =
  if phi >= nlo then
    invalid_arg
      (Printf.sprintf "Sim_list.concat: %s does not precede %s"
         (Interval.to_string (Interval.make plo phi))
         (Interval.to_string (Interval.make nlo nhi)));
  pv = nv && phi + 1 = nlo

(* The boundary walk behind both gathers, O(1) per part: [step ~at l
   off joined] is called for each non-empty list [l], shifted by [off],
   with the count [at] of entries gathered before it and whether its
   first entry coalesces with the last of those.  Returns the count of
   the whole gather. *)
let walk parts step =
  let n = ref 0 and plo = ref 0 and phi = ref 0 and pv = ref 0. in
  List.iter
    (fun (l, off) ->
      let m = length l in
      if m > 0 then begin
        let joined =
          !n > 0
          && joins ~plo:!plo ~phi:!phi ~pv:!pv ~nlo:(lo l 0 + off)
               ~nhi:(hi l 0 + off) ~nv:l.vals.(0)
        in
        step ~at:!n l off joined;
        n := !n + m - Bool.to_int joined;
        plo := lo l (m - 1) + off;
        phi := hi l (m - 1) + off;
        pv := l.vals.(m - 1)
      end)
    parts;
  !n

let concat_length parts =
  ignore (concat_max parts);
  walk parts (fun ~at:_ _ _ _ -> ())

let concat parts =
  let max = concat_max parts in
  let n = walk parts (fun ~at:_ _ _ _ -> ()) in
  let bs = Array.make (2 * n) 0 and vs = Array.make n 0. in
  ignore
    (walk parts (fun ~at l off joined ->
         (* a coalescing first entry extends the one before it *)
         if joined then bs.((2 * at) - 1) <- hi l 0 + off;
         let first = Bool.to_int joined in
         let dst = at - first in
         for i = first to length l - 1 do
           bs.(2 * (dst + i)) <- lo l i + off;
           bs.((2 * (dst + i)) + 1) <- hi l i + off
         done;
         Array.blit l.vals first vs (dst + first) (length l - first)));
  { max; bounds = bs; vals = vs }

let to_dense ~n t =
  let a = Array.make n 0. in
  for i = 0 to length t - 1 do
    for id = lo t i to Int.min (hi t i) n do
      a.(id - 1) <- t.vals.(i)
    done
  done;
  a

let of_dense ~max arr = of_dense_at ~max ~first:1 arr

(* One walk over the base entries and the sorted ids together: base
   pieces between two ids are pushed as they are, each id's new value is
   checked and pushed as a one-id piece, and [push] clamps, drops zeros
   and coalesces exactly as [of_entries] does on [of_dense]'s runs.  An
   id cuts at most one entry in three, so the output can reach
   |t| + 2·|ids| entries, where it usually has a fraction of that (ids
   with equal scores coalesce): it counts them first ([exactly]). *)
let overlay t ~ids ~values =
  let m = Array.length ids in
  if Array.length values <> m then
    invalid_arg "Sim_list.overlay: ids and values differ in length";
  let max = t.max and n = length t in
  let tol = tolerance max in
  exactly ~max @@ fun o ->
  if n = 0 then
    (* no base entry: the ids' own pieces, in one loop *)
    for k = 0 to m - 1 do
      let id = ids.(k) in
      if id < (if k = 0 then 1 else ids.(k - 1) + 1) then
        invalid_arg "Sim_list.overlay: ids not ascending";
      if values.(k) > max +. tol then exceeds values.(k) max;
      push o ~max id id values.(k)
    done
  else
  let point k pos =
    let id = ids.(k) in
    if id < pos then invalid_arg "Sim_list.overlay: ids not ascending";
    if values.(k) > max +. tol then exceeds values.(k) max;
    push o ~max id id values.(k)
  in
  (* ids below [pos] are emitted; [k] is the next id to overwrite *)
  let rec go k pos i =
    if i >= n then begin
      if k < m then begin
        point k pos;
        go (k + 1) (ids.(k) + 1) i
      end
    end
    else
      let lo = Int.max pos (lo t i) and hi = hi t i in
      if lo > hi then go k pos (i + 1)
      else if k < m && ids.(k) <= hi then begin
        let id = ids.(k) in
        push o ~max lo (id - 1) t.vals.(i);
        point k pos;
        go (k + 1) (id + 1) i
      end
      else begin
        push o ~max lo hi t.vals.(i);
        go k (hi + 1) (i + 1)
      end
  in
  go 0 1 0
