type entry = Interval.t * float
type t = { max : float; entries : entry list }

let float_tolerance = 1e-9

(* Coalesce adjacent intervals carrying the same value; assumes sorted
   disjoint entries. *)
let coalesce entries =
  let rec go acc = function
    | [] -> List.rev acc
    | e :: tl -> (
        match acc with
        | (iv0, v0) :: acc_tl
          when v0 = snd e && Interval.adjacent iv0 (fst e) ->
            let merged =
              Interval.make (Interval.lo iv0) (Interval.hi (fst e))
            in
            go ((merged, v0) :: acc_tl) tl
        | _ -> go (e :: acc) tl)
  in
  go [] entries

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
  let entries = List.filter (fun (_, v) -> v > 0.) entries in
  let entries =
    List.sort (fun (a, _) (b, _) -> Interval.compare a b) entries
  in
  check_disjoint entries;
  let tolerance = float_tolerance *. Float.max 1. (Float.abs max) in
  let entries =
    List.map
      (fun (iv, v) ->
        if v > max +. tolerance then
          invalid_arg
            (Printf.sprintf "Sim_list.of_entries: actual %g exceeds max %g" v
               max);
        (iv, Float.min v max))
      entries
  in
  { max; entries = coalesce entries }

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

(* --- generic two-list sweep --------------------------------------- *)

(* The breakpoints of an entry list: each [lo] and [hi + 1], in order.
   Disjointness makes the resulting sequence non-decreasing. *)
let breakpoints entries =
  List.concat_map
    (fun (iv, _) -> [ Interval.lo iv; Interval.hi iv + 1 ])
    entries

let rec merge_sorted xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xtl, y :: ytl ->
      if x <= y then x :: merge_sorted xtl ys else y :: merge_sorted xs ytl

(* adjacent intervals produce duplicate breakpoints even within one list *)
let rec dedup = function
  | a :: (b :: _ as tl) when a = b -> dedup tl
  | a :: tl -> a :: dedup tl
  | [] -> []

let merge_unique xs ys = dedup (merge_sorted xs ys)

let rec drop_before p = function
  | (iv, _) :: tl when Interval.hi iv < p -> drop_before p tl
  | l -> l

let head_value p = function
  | (iv, v) :: _ when Interval.contains iv p -> v
  | _ -> 0.

(* Sweep the union of both breakpoint sets; [combine va vb] gives the
   output value on each elementary piece (0 values are dropped).
   [combine 0. 0.] must be <= 0 for the output to stay sparse. *)
let merge2 ~max combine la lb =
  let bps = merge_unique (breakpoints la) (breakpoints lb) in
  let rec go bps la lb acc =
    match bps with
    | [] | [ _ ] -> List.rev acc
    | p :: (q :: _ as rest) ->
        let la = drop_before p la and lb = drop_before p lb in
        let v = combine (head_value p la) (head_value p lb) in
        let acc =
          if v > 0. then (Interval.make p (q - 1), v) :: acc else acc
        in
        go rest la lb acc
  in
  of_entries ~max (go bps la lb [])

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

let next_shift ~extents t =
  let entries = Extent.split_entries extents t.entries in
  let shifted =
    List.filter_map
      (fun (iv, v) ->
        let ext = Extent.containing extents (Interval.lo iv) in
        (* positions that see [iv] as their successor, within the same
           extent: ids [lo-1 .. hi-1] clipped to [ext.lo .. ext.hi - 1] *)
        if Interval.hi ext = Interval.lo ext then None
        else
          let window =
            Interval.make (Interval.lo ext) (Interval.hi ext - 1)
          in
          Option.map
            (fun iv' -> (iv', v))
            (Interval.clip (Interval.shift (-1) iv) ~within:window))
      entries
  in
  of_entries ~max:t.max shifted

(* Full piecewise-constant coverage of [window] by the (clipped, sorted,
   disjoint) entries, inserting explicit zero-valued gap pieces. *)
let pieces_within window entries =
  let lo = Interval.lo window and hi = Interval.hi window in
  let clipped =
    List.filter_map
      (fun (iv, v) ->
        Option.map (fun c -> (c, v)) (Interval.clip iv ~within:window))
      entries
  in
  let rec go pos = function
    | [] -> if pos <= hi then [ (Interval.make pos hi, 0.) ] else []
    | (iv, v) :: tl ->
        let gap =
          if pos < Interval.lo iv then
            [ (Interval.make pos (Interval.lo iv - 1), 0.) ]
          else []
        in
        gap @ ((iv, v) :: go (Interval.hi iv + 1) tl)
  in
  go lo clipped

(* Suffix maximum of the step function given by [entries] over [window]:
   at id [i] the result is the max value at any id in [[i, window.hi]].
   Constant on each piece, so compute right-to-left over the pieces. *)
let suffix_max_pieces window entries =
  let pieces = pieces_within window entries in
  let rec go = function
    | [] -> ([], 0.)
    | (iv, v) :: tl ->
        let rest, best_after = go tl in
        let best = Float.max v best_after in
        ((iv, best) :: rest, best)
  in
  fst (go pieces)

let default_threshold = 0.5

(* Distribute (already split) entries over the extent spans in one
   left-to-right pass: returns per-span entry lists, in span order. *)
let group_by_extent spans entries =
  let rec go spans entries acc =
    match spans with
    | [] -> List.rev acc
    | ext :: spans_tl ->
        let rec take l inside =
          match l with
          | ((iv, _) as e) :: tl when Interval.hi iv <= Interval.hi ext ->
              take tl (e :: inside)
          | _ -> (List.rev inside, l)
        in
        let inside, rest = take entries [] in
        go spans_tl rest ((ext, inside) :: acc)
  in
  go spans entries []

let until_merge ?(threshold = default_threshold) ~extents g h =
  let spans = Extent.spans extents in
  let g_groups = group_by_extent spans (Extent.split_entries extents g.entries)
  and h_groups =
    group_by_extent spans (Extent.split_entries extents h.entries)
  in
  let result_per_extent (ext, g_in) (_, h_in) =
    (* corridors: g ids at or above the threshold, coalesced *)
    let above =
      List.filter
        (fun (_, v) -> g.max > 0. && v /. g.max >= threshold)
        g_in
    in
    let corridors =
      List.map fst (coalesce (List.map (fun (iv, _) -> (iv, 1.)) above))
    in
    (* inside a corridor [b,e]: suffix max of h over [i, e+1].  Corridor
       windows are disjoint and increasing, so walk corridors and h
       entries in tandem (an h entry can span several windows and is then
       revisited, but each revisit is O(1) per window). *)
    let corridor_entries =
      let rec walk corridors h_entries acc =
        match corridors with
        | [] -> List.concat (List.rev acc)
        | corridor :: rest ->
            let window_hi = min (Interval.hi corridor + 1) (Interval.hi ext) in
            let window = Interval.make (Interval.lo corridor) window_hi in
            let rec drop = function
              | (iv, _) :: tl when Interval.hi iv < Interval.lo window ->
                  drop tl
              | l -> l
            in
            let h_entries = drop h_entries in
            let rec take l taken =
              match l with
              | ((iv, _) as e) :: tl
                when Interval.lo iv <= Interval.hi window ->
                  take tl (e :: taken)
              | _ -> List.rev taken
            in
            let inside = take h_entries [] in
            let sm = suffix_max_pieces window inside in
            let clipped =
              List.filter_map
                (fun (iv, v) ->
                  if v <= 0. then None
                  else
                    Option.map (fun c -> (c, v))
                      (Interval.clip iv ~within:corridor))
                sm
            in
            walk rest h_entries (clipped :: acc)
      in
      walk corridors h_in []
    in
    (* outside corridors: h at the id itself (u'' = u) *)
    let self_entries =
      List.filter_map
        (fun (iv, v) ->
          Option.map (fun c -> (c, v)) (Interval.clip iv ~within:ext))
        h_in
    in
    (merge2 ~max:h.max Float.max corridor_entries self_entries).entries
  in
  let all = List.concat (List.map2 result_per_extent g_groups h_groups) in
  of_entries ~max:h.max all

let eventually ~extents t =
  let spans = Extent.spans extents in
  let groups = group_by_extent spans (Extent.split_entries extents t.entries) in
  let per_extent (ext, within) =
    List.filter (fun (_, v) -> v > 0.) (suffix_max_pieces ext within)
  in
  of_entries ~max:t.max (List.concat_map per_extent groups)

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

let scale_max t ~max =
  of_entries ~max (List.map (fun (iv, v) -> (iv, v)) t.entries)

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
