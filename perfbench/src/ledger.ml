(* Per-transaction submit/commit timeline behind [tx_on_time_share] and
   the [workload.*] counts.

   A transaction is attempted when it was submitted inside
   [window_start, window_end - limit], so its whole latency limit L fell
   inside the run; it fails when its origin node did not output it
   within L. Transactions submitted later are still in flight when the
   window closes and are never counted, whichever way they would have
   gone. *)

type fate = Not_attempted | On_time | Failed

let classify ~window_start_us ~window_end_us ~limit_us ~submit_us ~commit_us =
  if submit_us < window_start_us || submit_us > window_end_us - limit_us then
    Not_attempted
  else
    match commit_us with
    | Some c when c - submit_us <= limit_us -> On_time
    | _ -> Failed

type t = {
  submits : (string, int) Hashtbl.t;  (** tx id -> simulated submit µs *)
  commits : (string, int) Hashtbl.t;  (** tx id -> first output at origin *)
}

let create () = { submits = Hashtbl.create 4096; commits = Hashtbl.create 4096 }

let submit t ~tx_id ~at_us = Hashtbl.replace t.submits tx_id at_us

let commit t ~tx_id ~at_us =
  if not (Hashtbl.mem t.commits tx_id) then Hashtbl.replace t.commits tx_id at_us

type tally = {
  submitted : int;  (** submitted inside the window *)
  attempted : int;
  failed : int;
}

let tally t ~window_start_us ~window_end_us ~limit_us =
  Hashtbl.fold
    (fun tx_id submit_us acc ->
      let acc =
        if submit_us >= window_start_us && submit_us < window_end_us then
          { acc with submitted = acc.submitted + 1 }
        else acc
      in
      match
        classify ~window_start_us ~window_end_us ~limit_us ~submit_us
          ~commit_us:(Hashtbl.find_opt t.commits tx_id)
      with
      | Not_attempted -> acc
      | On_time -> { acc with attempted = acc.attempted + 1 }
      | Failed -> { acc with attempted = acc.attempted + 1; failed = acc.failed + 1 })
    t.submits
    { submitted = 0; attempted = 0; failed = 0 }
