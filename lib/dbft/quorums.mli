(** Byzantine quorum arithmetic for n > 3f systems, shared by the DBFT
    substrate and Lyra. *)

(** [max_faulty n] is the largest f with n > 3f, i.e. ⌊(n − 1) / 3⌋. *)
val max_faulty : int -> int

(** [quorum n] = n − f, the size of a Byzantine quorum. *)
val quorum : int -> int

(** [supermajority n] = 2f + 1, the validation threshold used by VVB
    and the threshold-signature scheme. *)
val supermajority : int -> int

(** [aux_union ~need ~in_bin auxs] implements the DBFT AUX wait (Alg. 3
    lines 43–45): among the received AUX value-sets [auxs] (one per
    distinct sender), keep those fully contained in the local
    bin_values (predicate [in_bin]); if at least [need] senders remain,
    return the sorted union of their values. *)
val aux_union : need:int -> in_bin:(int -> bool) -> int list list -> int list option

(** [nth_highest a ~len k] is the value at 0-based rank [k] of
    [a.(0 .. len-1)] sorted in descending order — the (k+1)-th highest,
    duplicates counted. It reorders that prefix of [a] in place and
    allocates nothing, so callers pass a scratch copy of the data they
    keep. Expected O(len). Raises [Invalid_argument] unless
    [0 <= k < len <= Array.length a]. *)
val nth_highest : int array -> len:int -> int -> int
