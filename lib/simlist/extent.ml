type t = { starts : int array; total : int }
(* [starts] is sorted increasing, starts.(0) = 1.  Extent k covers
   [starts.(k) .. (if k+1 < len then starts.(k+1) - 1 else total)]. *)

let single n =
  if n < 1 then invalid_arg "Extent.single: n < 1";
  { starts = [| 1 |]; total = n }

let of_lengths lengths =
  if lengths = [] then invalid_arg "Extent.of_lengths: empty";
  let starts = ref [] and pos = ref 1 in
  List.iter
    (fun l ->
      if l < 1 then invalid_arg "Extent.of_lengths: non-positive length";
      starts := !pos :: !starts;
      pos := !pos + l)
    lengths;
  { starts = Array.of_list (List.rev !starts); total = !pos - 1 }

let of_spans spans =
  (match spans with
  | [] -> invalid_arg "Extent.of_spans: empty"
  | first :: _ when Interval.lo first <> 1 ->
      invalid_arg "Extent.of_spans: first span must start at 1"
  | _ :: rest ->
      let rec check prev = function
        | [] -> ()
        | s :: tl ->
            if not (Interval.adjacent prev s) then
              invalid_arg "Extent.of_spans: spans must tile consecutively";
            check s tl
      in
      check (List.hd spans) rest);
  of_lengths (List.map Interval.length spans)

let total t = t.total
let count t = Array.length t.starts

let first_id t k = t.starts.(k)

let last_id t k =
  if k + 1 < Array.length t.starts then t.starts.(k + 1) - 1 else t.total

let span_at t k = Interval.make (first_id t k) (last_id t k)

let spans t = List.init (count t) (span_at t)

let index_containing t i =
  if i < 1 || i > t.total then
    invalid_arg (Printf.sprintf "Extent.containing: id %d out of [1,%d]" i t.total);
  (* greatest k with starts.(k) <= i *)
  let lo = ref 0 and hi = ref (Array.length t.starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.starts.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

let containing t i = span_at t (index_containing t i)
let last_of t i = last_id t (index_containing t i)

let equal a b = a.total = b.total && a.starts = b.starts

let pp ppf t =
  Format.fprintf ppf "@[<h>extents:%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Interval.pp)
    (spans t)
