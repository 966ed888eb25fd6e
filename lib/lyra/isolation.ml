type t = {
  self : int;
  need : int;  (** peers besides [self] that must be recent *)
  gap_us : int;
  last_rx : int array;  (** per-peer time of last received message *)
  scratch : int array;
  mutable ok_until : int;  (** the check passes at every time up to here *)
}

let create ~n ~self ~quorum ~gap_us =
  {
    self;
    need = quorum - 1;
    gap_us;
    last_rx = Array.make n 0;
    scratch = Array.make n 0;
    (* A lone process always hears a quorum: itself. *)
    ok_until = (if quorum <= 1 then max_int else -1);
  }

(* With v the [need]-th most recent last-receive time among the peers,
   the check passes at [now] iff now − v ≤ gap. Receive times only
   grow, so v never falls and a pass at [now] holds through v + gap. *)
let observe t ~src ~now =
  t.last_rx.(src) <- now;
  if now <= t.ok_until then false
  else begin
    let n = Array.length t.last_rx in
    Array.blit t.last_rx 0 t.scratch 0 n;
    t.scratch.(t.self) <- min_int;
    let v = Dbft.Quorums.nth_highest t.scratch ~len:n (t.need - 1) in
    if now - v <= t.gap_us then begin
      t.ok_until <- v + t.gap_us;
      false
    end
    else true
  end
