(** The isolation check behind a node's probation window: has this
    node heard from a quorum (itself included) within the last
    [gap_us]? Checking it by scanning every peer's last-receive time
    costs O(n) per message; this module keeps the time until which the
    last passing check must keep passing and rescans only after it,
    with exactly the same verdicts. *)

type t

(** [create ~n ~self ~quorum ~gap_us] — nobody has been heard yet (all
    last-receive times are 0). *)
val create : n:int -> self:int -> quorum:int -> gap_us:int -> t

(** [observe t ~src ~now] records a message from [src] at engine time
    [now] (non-decreasing across calls) and answers whether fewer than
    [quorum] processes — this one always counts — have been heard
    within [gap_us] of [now]. *)
val observe : t -> src:int -> now:int -> bool
