module Sim_list = Simlist.Sim_list
module Sim = Simlist.Sim
module Interval = Simlist.Interval

let ranked_intervals list =
  List.sort
    (fun (i1, v1) (i2, v2) ->
      match Float.compare v2 v1 with
      | 0 -> Interval.compare i1 i2
      | c -> c)
    (Sim_list.entries list)

(* Bounded selection over the union of shifted lists.  The entries are
   pairwise disjoint (within a list by canonical form, across lists
   because the offsets partition the id space), so every id outside the
   k best entries by (value desc, start asc) ranks below at least one id
   — the first — of each of those k entries: the k best ids lie inside
   the k best entries.  One pass keeps them in a size-k min-heap (root =
   worst kept entry, held in parallel arrays of list, entry index and
   shifted bounds, so a rejected entry allocates nothing), then the kept
   entries are sorted and expanded to ids lazily: ids of equal value
   come out ascending by walking disjoint intervals in start order, the
   same (value desc, id asc) ranking as materialising every id.  The
   scan reads each list's packed arrays by index, and [cap] is a sum of
   O(1) lengths.  O(m log k + k) for m entries; a whole-movie list with
   a million-frame interval costs k conses, not a million. *)
let select ~name parts ~k =
  if k < 0 then invalid_arg (Printf.sprintf "Topk.%s: negative k (%d)" name k);
  let first, max =
    match parts with
    | [] -> invalid_arg (Printf.sprintf "Topk.%s: no lists" name)
    | (l, _) :: rest ->
        let m = Sim_list.max_sim l in
        List.iter
          (fun (l', _) ->
            if Sim_list.max_sim l' <> m then
              invalid_arg
                (Printf.sprintf "Topk.%s: lists disagree on max" name))
          rest;
        (l, m)
  in
  let cap =
    min k (List.fold_left (fun n (l, _) -> n + Sim_list.length l) 0 parts)
  in
  (* slot [s] keeps entry [idx.(s)] of [lists.(s)], shifted to
     [[los.(s), his.(s)]]; values are compared in place
     ({!Sim_list.ranks_above}), never copied out as boxed floats *)
  let lists = Array.make cap first and idx = Array.make cap 0 in
  let los = Array.make cap 0 and his = Array.make cap 0 in
  let size = ref 0 in
  (* [worse i j]: the entry in slot i ranks below the one in slot j *)
  let worse i j =
    Sim_list.ranks_above lists.(j) idx.(j) ~lo:los.(j) lists.(i) idx.(i)
      ~lo:los.(i)
  in
  let set s l i lo hi =
    lists.(s) <- l;
    idx.(s) <- i;
    los.(s) <- lo;
    his.(s) <- hi
  in
  let swap i j =
    let l = lists.(i) and x = idx.(i) and lo = los.(i) and hi = his.(i) in
    set i lists.(j) idx.(j) los.(j) his.(j);
    set j l x lo hi
  in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && worse i p then begin
      swap i p;
      up p
    end
  in
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < !size && worse l i then l else i in
    let m = if r < !size && worse r m then r else m in
    if m <> i then begin
      swap i m;
      down m
    end
  in
  (* once the heap is full, [Sim_list.next_above] skips, in one loop
     over the packed arrays, every entry that ranks below its root *)
  if cap > 0 then
    List.iter
      (fun (l, off) ->
        let n = Sim_list.length l in
        let i = ref 0 in
        while !i < n do
          if !size < cap then begin
            set !size l !i (Sim_list.lo l !i + off) (Sim_list.hi l !i + off);
            incr size;
            up (!size - 1);
            incr i
          end
          else begin
            let j =
              Sim_list.next_above l ~off ~from:!i lists.(0) idx.(0)
                ~lo:los.(0)
            in
            if j < n then begin
              set 0 l j (Sim_list.lo l j + off) (Sim_list.hi l j + off);
              down 0
            end;
            i := j + 1
          end
        done)
      parts;
  (* heapsort in place: moving the worst kept entry behind the shrinking
     heap, one slot at a time, leaves the slots ranked best first *)
  let kept = !size in
  for last = kept - 1 downto 1 do
    swap 0 last;
    size := last;
    down 0
  done;
  let rec take n i =
    if n = 0 || i = kept then []
    else
      let m = min n (his.(i) - los.(i) + 1) in
      let sim = Sim.make ~actual:(Sim_list.value lists.(i) idx.(i)) ~max in
      List.init m (fun j -> (los.(i) + j, sim))
      @ take (n - m) (i + 1)
  in
  take k 0

let top_k list ~k = select ~name:"top_k" [ (list, 0) ] ~k
let merged_top_k parts ~k = select ~name:"merged_top_k" parts ~k

let pp_table ?(header = ("Start", "End", "Sim")) ppf list =
  let s, e, v = header in
  Format.fprintf ppf "@[<v>%-8s %-8s %s@," s e v;
  List.iter
    (fun (iv, act) ->
      Format.fprintf ppf "%-8d %-8d %.6f@," (Interval.lo iv)
        (Interval.hi iv) act)
    (ranked_intervals list);
  Format.fprintf ppf "@]"
