let max_faulty n =
  if n < 1 then invalid_arg "Quorums.max_faulty: n must be positive";
  (n - 1) / 3

let quorum n = n - max_faulty n

let supermajority n = (2 * max_faulty n) + 1

let aux_union ~need ~in_bin auxs =
  let valid = List.filter (List.for_all in_bin) auxs in
  if List.length valid < need then None
  else Some (List.sort_uniq Int.compare (List.concat valid))

(* Hoare's FIND (Wirth's formulation): partition around the value at
   the target position until the target's left part holds no larger and
   its right part no smaller values. Ascending rank [len - 1 - k] is
   descending rank [k]. No allocation: the refs never escape. *)
let nth_highest a ~len k =
  if k < 0 || k >= len || len > Array.length a then
    invalid_arg "Quorums.nth_highest";
  let target = len - 1 - k in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let pivot = a.(target) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while pivot < a.(!j) do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if !j < target then lo := !i;
    if target < !i then hi := !j
  done;
  a.(target)
