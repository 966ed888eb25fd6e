(* Host speed probe. The benchmark shares its machine with other work,
   and the machine's speed wanders by 15-25% over seconds and minutes;
   wall time follows it. So that host times move with the program and
   not with the machine, a small fixed kernel is timed every 10 ms
   while a case runs.

   Host times are read on [clock], which leaves out the kernel's own
   time, and scaled by [factor]: reference kernel time / mean kernel
   time over the same interval. They are seconds at the reference
   speed. The kernel touches no simulation state and keeps nothing it
   allocates, so the simulation is bit-identical with it on; its
   allocations only shift the GC's schedule a little. *)

let text = String.make 1024 'x'

(* Short-lived allocation, integer formatting, hashing and a digest:
   the mix of work the simulation does, with nothing kept past the
   call. *)
let kernel () =
  let tbl = Hashtbl.create 256 in
  let l = ref [] in
  for i = 1 to 1_000 do
    l := (i, string_of_int i) :: !l;
    if i land 7 = 0 then Hashtbl.replace tbl (i land 255) !l
  done;
  ignore (Sys.opaque_identity (tbl, Digest.string text))

(* The kernel's typical time, in µs, on the 2-core VM of the baseline. *)
let reference_us = 125.

let period_s = 0.01

let spent_s = ref 0.

let timed_s = ref 0.

let samples = ref 0

let sampling = ref false

(* Host seconds, less the time spent in the kernel. *)
let clock () = Unix.gettimeofday () -. !spent_s

let minor_collections () = (Gc.quick_stat ()).minor_collections

(* A sample during which the kernel's allocation set off a minor
   collection timed the program's heap too; it is left out of the mean.
   A timer signal that lands inside a sample is dropped. *)
let sample () =
  if not !sampling then (
    sampling := true;
    let gcs = minor_collections () in
    let t0 = Unix.gettimeofday () in
    kernel ();
    let t1 = Unix.gettimeofday () in
    spent_s := !spent_s +. (t1 -. t0);
    if Int.equal (minor_collections ()) gcs then (
      timed_s := !timed_s +. (t1 -. t0);
      incr samples);
    sampling := false)

(* Samples come from an interval timer, so they are spread evenly over
   host time, the harness's post-run scoring included; OCaml runs the
   handler at the program's next poll point. *)
let every s = { Unix.it_interval = s; it_value = s }

let start () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  ignore (Unix.setitimer Unix.ITIMER_REAL (every period_s) : Unix.interval_timer_status)

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.) : Unix.interval_timer_status);
  Sys.set_signal Sys.sigalrm Sys.Signal_default

type mark = { timed : float; count : int }

let mark () = { timed = !timed_s; count = !samples }

let mean_us a b =
  let k = b.count - a.count in
  if k > 0 then Some ((b.timed -. a.timed) *. 1e6 /. float_of_int k) else None

(* Raw host seconds between marks [a] and [b] times [factor a b] are
   reference seconds. *)
let factor a b = Option.map (fun m -> reference_us /. m) (mean_us a b)
