(* GC time from OCaml's own runtime-events ring (OCaml >= 5.0, part of
   the compiler distribution). Only traced runs start it. Each runtime
   phase's begin/end pairs are summed into a per-phase total; the ring
   is drained by [poll], which the shim calls often enough that the
   runtime never overwrites unread events ([lost] stays 0 — a traced
   run checks it). *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  total_ns : (Runtime_events.runtime_phase, int64) Hashtbl.t;
  lost : int ref;
}

let start () =
  Runtime_events.start ();
  let open_at = Hashtbl.create 64 and total_ns = Hashtbl.create 64 in
  let lost = ref 0 in
  let runtime_begin _ ts phase =
    Hashtbl.replace open_at phase (Runtime_events.Timestamp.to_int64 ts)
  in
  let runtime_end _ ts phase =
    match Hashtbl.find_opt open_at phase with
    | None -> ()
    | Some t0 ->
        Hashtbl.remove open_at phase;
        let d = Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0 in
        let prev = Option.value ~default:0L (Hashtbl.find_opt total_ns phase) in
        Hashtbl.replace total_ns phase (Int64.add prev d)
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ k -> lost := !lost + k)
      ()
  in
  { cursor = Runtime_events.create_cursor None; callbacks; total_ns; lost }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

let lost t = !(t.lost)

(* Seconds spent in [phase] so far (as of the last poll). *)
let seconds t phase =
  match Hashtbl.find_opt t.total_ns phase with
  | None -> 0.
  | Some ns -> Int64.to_float ns /. 1e9

let phases t =
  List.sort compare
    (Hashtbl.fold
       (fun ph ns acc ->
         (Runtime_events.runtime_phase_name ph, Int64.to_float ns /. 1e9) :: acc)
       t.total_ns [])
