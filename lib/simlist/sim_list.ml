type entry = Interval.t * float
type t = { max : float; entries : entry list }

let float_tolerance = 1e-9

(* --- canonical output in one pass -------------------------------------

   Every kernel walks its canonical inputs once, left to right, and
   emits its output pieces in id order.  All but [merge2] (see there)
   push them onto a reversed accumulator.  The push keeps the
   accumulator canonical as it goes: empty and non-positive pieces are
   dropped, values are clamped to [max], and a piece that abuts the
   previous one with the same value extends it.  The result then needs
   a [List.rev], never a sort or a second pass. *)

(* [e] starts after the accumulator's last piece and needs no clamp *)
let push_entry ((iv, v) as e) acc =
  match acc with
  | (piv, pv) :: tl when pv = v && Interval.adjacent piv iv ->
      (Interval.make (Interval.lo piv) (Interval.hi iv), v) :: tl
  | _ -> e :: acc

let push ~max lo hi v acc =
  if lo > hi || not (v > 0.) then acc
  else
    let v = Float.min v max in
    match acc with
    | (piv, pv) :: tl when pv = v && Interval.hi piv + 1 = lo ->
        (Interval.make (Interval.lo piv) hi, v) :: tl
    | _ -> (Interval.make lo hi, v) :: acc

let finish ~max acc = { max; entries = List.rev acc }

(* Input that is canonical already (the usual case: kernel outputs,
   dense conversions, decoded lists) is kept as it is. *)
let rec canonical ~max = function
  | [] -> true
  | [ (_, v) ] -> v > 0. && v <= max
  | (iv1, v1) :: ((iv2, v2) :: _ as tl) ->
      v1 > 0. && v1 <= max
      && Interval.hi iv1 < Interval.lo iv2
      && (not (v1 = v2 && Interval.adjacent iv1 iv2))
      && canonical ~max tl

(* each entry ends before the next begins: sorted and disjoint *)
let rec ordered = function
  | (iv1, _) :: ((iv2, _) :: _ as tl) ->
      Interval.hi iv1 < Interval.lo iv2 && ordered tl
  | [ _ ] | [] -> true

let check_disjoint entries =
  let rec go = function
    | (iv1, _) :: ((iv2, _) :: _ as tl) ->
        if Interval.hi iv1 >= Interval.lo iv2 then
          invalid_arg
            (Printf.sprintf "Sim_list: overlapping intervals %s and %s"
               (Interval.to_string iv1) (Interval.to_string iv2));
        go tl
    | [ _ ] | [] -> ()
  in
  go entries

let of_entries ~max entries =
  if max < 0. then invalid_arg "Sim_list.of_entries: negative max";
  if canonical ~max entries then { max; entries }
  else
    let entries = List.filter (fun (_, v) -> v > 0.) entries in
    let entries =
      if ordered entries then entries
      else
        let sorted =
          List.sort (fun (a, _) (b, _) -> Interval.compare a b) entries
        in
        check_disjoint sorted;
        sorted
    in
    let tolerance = float_tolerance *. Float.max 1. (Float.abs max) in
    finish ~max
      (List.fold_left
         (fun acc (iv, v) ->
           if v > max +. tolerance then
             invalid_arg
               (Printf.sprintf "Sim_list.of_entries: actual %g exceeds max %g"
                  v max);
           push ~max (Interval.lo iv) (Interval.hi iv) v acc)
         [] entries)

let empty ~max = of_entries ~max []
let entries t = t.entries
let max_sim t = t.max
(* O(n), but only reached from tests and bench reporting — every
   hot-path cardinality question goes through Sim_table.row_count,
   which is O(1). *)
let length t = List.length t.entries
let is_empty t = t.entries = []

let covered t =
  List.fold_left (fun n (iv, _) -> n + Interval.length iv) 0 t.entries

let value_at t id =
  let rec go = function
    | [] -> 0.
    | (iv, v) :: tl ->
        if id < Interval.lo iv then 0.
        else if id <= Interval.hi iv then v
        else go tl
  in
  go t.entries

let sim_at t id = Sim.make ~actual:(value_at t id) ~max:t.max
let fraction_at t id = if t.max = 0. then 0. else value_at t id /. t.max

let equal a b =
  a.max = b.max
  && List.equal
       (fun (i1, v1) (i2, v2) -> Interval.equal i1 i2 && v1 = v2)
       a.entries b.entries

let pp ppf t =
  let pp_entry ppf (iv, v) = Format.fprintf ppf "%a:%g" Interval.pp iv v in
  Format.fprintf ppf "@[<h>{max=%g;@ %a}@]" t.max
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_entry)
    t.entries

(* --- the two-pointer sweep ------------------------------------------ *)

(* One walk over both canonical entry lists, cutting at each entry
   boundary as it comes: [combine va vb] is emitted for every stretch
   where at least one side is non-zero.  Stretches where both are zero
   are skipped, so [combine 0. 0.] must be <= 0.  [pos] is the first id
   not yet swept; every entry left in [la] and [lb] ends at or after it.
   This is the kernel behind every conjunction and max-merge, so unlike
   the others it builds its output front to back (tail-mod-cons) rather
   than reversing an accumulator: the piece [[plo, phi]] with value [pv]
   is held back until the next one shows whether it extends it ([pv =
   0.] when nothing is held). *)
let merge2 ~max combine la lb =
  let[@tail_mod_cons] rec go pos la lb plo phi pv =
    match (la, lb) with
    | [], [] -> if pv > 0. then [ (Interval.make plo phi, pv) ] else []
    | (ia, va) :: ta, [] ->
        emit (Interval.hi ia + 1) ta [] plo phi pv
          (Int.max pos (Interval.lo ia))
          (Interval.hi ia) (combine va 0.)
    | [], (ib, vb) :: tb ->
        emit (Interval.hi ib + 1) [] tb plo phi pv
          (Int.max pos (Interval.lo ib))
          (Interval.hi ib) (combine 0. vb)
    | (ia, va) :: ta, (ib, vb) :: tb ->
        let alo = Int.max pos (Interval.lo ia)
        and blo = Int.max pos (Interval.lo ib) in
        let lo = Int.min alo blo in
        let a_in = alo = lo and b_in = blo = lo in
        let hi =
          Int.min
            (if a_in then Interval.hi ia else alo - 1)
            (if b_in then Interval.hi ib else blo - 1)
        in
        emit (hi + 1)
          (if hi = Interval.hi ia then ta else la)
          (if hi = Interval.hi ib then tb else lb)
          plo phi pv lo hi
          (combine (if a_in then va else 0.) (if b_in then vb else 0.))
  and[@tail_mod_cons] emit pos la lb plo phi pv lo hi v =
    if not (v > 0.) then go pos la lb plo phi pv
    else
      let v = Float.min v max in
      if pv = v && phi + 1 = lo then go pos la lb plo hi pv
      else if pv > 0. then (Interval.make plo phi, pv) :: go pos la lb lo hi v
      else go pos la lb lo hi v
  in
  { max; entries = go min_int la lb 0 0 0. }

(* --- the paper's operations ---------------------------------------- *)

let conjunction a b = merge2 ~max:(a.max +. b.max) ( +. ) a.entries b.entries

type conj_mode = Weighted_sum | Min_fraction | Product_fraction

let conjunction_mode mode a b =
  match mode with
  | Weighted_sum -> conjunction a b
  | Min_fraction | Product_fraction ->
      let m = a.max +. b.max in
      let frac max v = if max = 0. then 1. else v /. max in
      let combine va vb =
        let f =
          match mode with
          | Min_fraction -> Float.min (frac a.max va) (frac b.max vb)
          | Product_fraction -> frac a.max va *. frac b.max vb
          | Weighted_sum -> assert false
        in
        f *. m
      in
      merge2 ~max:m combine a.entries b.entries

let conjunction_many = function
  | [] -> invalid_arg "Sim_list.conjunction_many: empty"
  | first :: rest -> List.fold_left conjunction first rest

(* Id [i] reads its successor: entry [[lo, hi]] moves to [[lo-1, hi-1]],
   cut where it would cross into an earlier extent, which drops the last
   id of every extent. *)
let next_shift ~extents t =
  let rec piece lo hi v acc =
    let ext = Extent.containing extents lo in
    let ext_hi = Interval.hi ext in
    let acc =
      push ~max:t.max
        (Int.max (lo - 1) (Interval.lo ext))
        (Int.min hi ext_hi - 1) v acc
    in
    if hi > ext_hi then piece (ext_hi + 1) hi v acc else acc
  in
  finish ~max:t.max
    (List.fold_left
       (fun acc (iv, v) -> piece (Interval.lo iv) (Interval.hi iv) v acc)
       [] t.entries)

let default_threshold = 0.5

let rec drop_through id = function
  | (iv, _) :: tl when Interval.hi iv <= id -> drop_through id tl
  | l -> l

(* h's own value at every id of [[pos, upto]] (the until semantics allow
   [u'' = u]).  Returns the entries that reach past [upto]. *)
let rec self ~max pos upto hs acc =
  match hs with
  | ((iv, v) as e) :: tl when Interval.lo iv <= upto ->
      let hi = Interval.hi iv in
      if hi > upto then
        (hs, push ~max (Int.max pos (Interval.lo iv)) upto v acc)
      else if pos <= Interval.lo iv then self ~max pos upto tl (push_entry e acc)
      else self ~max pos upto tl (push ~max pos hi v acc)
  | _ -> (hs, acc)

(* Inside a corridor [[b, e]] whose window ends at [w] (e or e+1): at
   id [i] the best h value in [[i, w]].  [hs] are h's entries from the
   first one that ends at or after [b].  The window's entries are
   gathered rightmost first, then read right to left: there the running
   maximum only grows, so each larger value opens a new run and the runs
   come out coalesced, left to right. *)
let suffix_max ~b ~e ~w hs acc =
  let rec gather rin = function
    | ((iv, _) as en) :: tl when Interval.lo iv <= w -> gather (en :: rin) tl
    | _ -> rin
  in
  let run lo hi best out =
    if best > 0. && lo <= hi then (Interval.make lo hi, best) :: out else out
  in
  let rec runs run_hi best out = function
    | [] -> run b run_hi best out
    | (iv, v) :: tl ->
        if v > best then
          let hi = Int.min w (Interval.hi iv) in
          runs (Int.min hi e) v (run (hi + 1) run_hi best out) tl
        else runs run_hi best out tl
  in
  List.fold_left
    (fun acc en -> push_entry en acc)
    acc
    (runs e 0. [] (gather [] hs))

(* The run of ids [[b, e]] cut at extent ends into corridors: h's own
   value up to each corridor, the suffix maximum inside it. *)
let rec corridors ~max ~extents pos b e hs acc =
  match hs with
  | [] -> ([], acc)
  | _ ->
      let ext_hi = Extent.last_of extents b in
      let ce = Int.min e ext_hi in
      let hs, acc = self ~max pos (b - 1) hs acc in
      let acc = suffix_max ~b ~e:ce ~w:(Int.min (ce + 1) ext_hi) hs acc in
      let hs = drop_through ce hs in
      if ce < e then corridors ~max ~extents (ce + 1) (ce + 1) e hs acc
      else (hs, acc)

let until_merge ?(threshold = default_threshold) ~extents g h =
  let max = h.max in
  let above v = g.max > 0. && v /. g.max >= threshold in
  (* the last id of the above-threshold run that reaches [e] *)
  let rec run_end e = function
    | (iv, v) :: tl when Interval.lo iv = e + 1 && above v ->
        run_end (Interval.hi iv) tl
    | gs -> (e, gs)
  in
  let rec go pos gs hs acc =
    match (gs, hs) with
    | _, [] -> acc
    | [], _ -> snd (self ~max pos max_int hs acc)
    | (_, v) :: tl, _ when not (above v) -> go pos tl hs acc
    | (iv, _) :: tl, _ ->
        let e, tl = run_end (Interval.hi iv) tl in
        let hs, acc = corridors ~max ~extents pos (Interval.lo iv) e hs acc in
        go (e + 1) tl hs acc
  in
  finish ~max (go min_int g.entries h.entries [])

(* [true until t]: every extent is one corridor *)
let eventually ~extents t =
  finish ~max:t.max
    (snd
       (corridors ~max:t.max ~extents min_int 1 (Extent.total extents)
          t.entries []))

let check_same_max ?(fn = "merge_max") = function
  | [] -> invalid_arg (Printf.sprintf "Sim_list.%s: empty" fn)
  | first :: rest ->
      List.iter
        (fun l ->
          if l.max <> first.max then
            invalid_arg (Printf.sprintf "Sim_list.%s: differing maxima" fn))
        rest;
      first.max

let max2 a b = merge2 ~max:a.max Float.max a.entries b.entries

let merge_max lists =
  let _ = check_same_max lists in
  let rec pairs = function
    | [] -> []
    | [ x ] -> [ x ]
    | a :: b :: tl -> max2 a b :: pairs tl
  in
  let rec go = function
    | [ x ] -> x
    | ls -> go (pairs ls)
  in
  go lists

let merge_max_pairwise lists =
  let _ = check_same_max lists in
  match lists with
  | [] -> assert false
  | first :: rest -> List.fold_left max2 first rest

let restrict t spans =
  let indicator = List.map (fun iv -> (iv, 1.)) spans in
  merge2 ~max:t.max
    (fun v ind -> if ind > 0. then v else 0.)
    t.entries indicator

let scale_max t ~max = of_entries ~max t.entries

(* --- concatenating shifted lists -------------------------------------- *)

let concat_max parts = check_same_max ~fn:"concat" (List.map fst parts)

let shift_entry off (iv, v) = (Interval.shift off iv, v)

(* [prev] ends an earlier list and [next] starts the following non-empty
   one, both shifted: they must be in order and disjoint, and coalesce
   when they abut with equal values.  The only check [concat] needs —
   inside each list the entries are canonical already. *)
let joins (piv, pv) (niv, nv) =
  if Interval.hi piv >= Interval.lo niv then
    invalid_arg
      (Printf.sprintf "Sim_list.concat: %s does not precede %s"
         (Interval.to_string piv) (Interval.to_string niv));
  pv = nv && Interval.adjacent piv niv

let concat parts =
  let max = concat_max parts in
  (* built right to left, so [rest] starts with the first entry of the
     next non-empty list: a list's last entry is the one place a
     boundary can coalesce *)
  let[@tail_mod_cons] rec onto off entries rest =
    match entries with
    | [] -> rest
    | [ e ] -> (
        let ((iv, v) as e) = shift_entry off e in
        match rest with
        | ((niv, _) as next) :: rest_tl when joins e next ->
            (Interval.make (Interval.lo iv) (Interval.hi niv), v) :: rest_tl
        | _ -> e :: rest)
    | e :: tl -> shift_entry off e :: onto off tl rest
  in
  {
    max;
    entries =
      List.fold_right (fun (l, off) rest -> onto off l.entries rest) parts [];
  }

let concat_length parts =
  ignore (concat_max parts);
  let rec length_last n last = function
    | [] -> (n, last)
    | e :: tl -> length_last (n + 1) e tl
  in
  fst
    (List.fold_left
       (fun (n, prev) (l, off) ->
         match l.entries with
         | [] -> (n, prev)
         | first :: tl ->
             let len, last = length_last 1 first tl in
             let joined =
               match prev with
               | Some p -> joins p (shift_entry off first)
               | None -> false
             in
             (n + len - Bool.to_int joined, Some (shift_entry off last)))
       (0, None) parts)

let to_dense ~n t =
  let a = Array.make n 0. in
  List.iter
    (fun (iv, v) ->
      for i = Interval.lo iv to min (Interval.hi iv) n do
        a.(i - 1) <- v
      done)
    t.entries;
  a

let of_dense ~max arr =
  let entries = ref [] in
  let n = Array.length arr in
  let i = ref 0 in
  while !i < n do
    let v = arr.(!i) in
    if v > 0. then begin
      let j = ref !i in
      while !j + 1 < n && arr.(!j + 1) = v do
        incr j
      done;
      entries := (Interval.make (!i + 1) (!j + 1), v) :: !entries;
      i := !j + 1
    end
    else incr i
  done;
  of_entries ~max (List.rev !entries)

(* One walk over the base entries and the sorted ids together: base
   pieces between two ids are pushed as they are, each id's new value is
   checked and pushed as a one-id piece, and [push] clamps, drops zeros
   and coalesces exactly as [of_entries] does on [of_dense]'s runs. *)
let overlay t ~ids ~values =
  let m = Array.length ids in
  if Array.length values <> m then
    invalid_arg "Sim_list.overlay: ids and values differ in length";
  let max = t.max in
  let tolerance = float_tolerance *. Float.max 1. (Float.abs max) in
  let point k pos acc =
    let id = ids.(k) and v = values.(k) in
    if id < pos then invalid_arg "Sim_list.overlay: ids not ascending";
    if v > max +. tolerance then
      invalid_arg
        (Printf.sprintf "Sim_list.of_entries: actual %g exceeds max %g" v max);
    push ~max id id v acc
  in
  (* ids below [pos] are emitted; [k] is the next id to overwrite *)
  let rec go k pos entries acc =
    match entries with
    | [] -> if k = m then acc else go (k + 1) (ids.(k) + 1) [] (point k pos acc)
    | (iv, v) :: tl ->
        let lo = Int.max pos (Interval.lo iv) and hi = Interval.hi iv in
        if lo > hi then go k pos tl acc
        else if k < m && ids.(k) <= hi then
          let id = ids.(k) in
          go (k + 1) (id + 1) entries
            (point k pos (push ~max lo (id - 1) v acc))
        else go k (hi + 1) tl (push ~max lo hi v acc)
  in
  finish ~max (go 0 1 t.entries [])
