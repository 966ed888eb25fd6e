(* The four benchmark workloads. Each is one [Harness.Scenario.run]
   call; the benchmark seed is the only input that varies between runs.
   Why each one is here is recorded in [why] (and in BENCHMARK.json). *)

type t = {
  name : string;
  protocol : string;  (** registry name *)
  n : int;
  load : Harness.Scenario.load;
  window_us : int;  (** measurement window, after the protocol's warm-up *)
  limit_us : int;  (** latency limit L behind the on-time share *)
  crash : crash option;
  cases : int;
      (** cases in a 20-second run; [--seconds] scales it linearly *)
  why : string;
}

(* The [bench faults] "crash+recover" and "loss 1%" plans, placed in the
   measurement window at these shares of it. *)
and crash = {
  node : int;
  down : float * float;  (** crashed from, recovered at *)
  lossy : float * float;  (** 1% drop and 0.5% duplication from, until *)
}

let at (w : t) ~warmup_us frac =
  warmup_us + int_of_float (frac *. float_of_int w.window_us)

let faults w ~warmup_us =
  match w.crash with
  | None -> Sim.Faults.none
  | Some c ->
      let at = at w ~warmup_us in
      Sim.Faults.none
      |> Sim.Faults.crash ~node:c.node ~at_us:(at (fst c.down))
           ~recover_us:(at (snd c.down))
      |> Sim.Faults.loss ~dup_p:0.005 ~from_us:(at (fst c.lossy))
           ~until_us:(at (snd c.lossy)) ~drop_p:0.01

(* Simulated time at which the crashed node comes back. *)
let recover_us w ~warmup_us =
  Option.map (fun c -> at w ~warmup_us (snd c.down)) w.crash

let all =
  [
    {
      name = "lyra-n31-closed";
      protocol = "lyra";
      n = 31;
      load = Harness.Scenario.Closed 2;
      window_us = 3_500_000;
      limit_us = 2_000_000;
      crash = None;
      cases = 1;
      why =
        "Lyra's message-bound hot path at the fig2 closed-loop load: \
         thousands of messages per commit and a seconds-long warm-up flood";
    };
    {
      name = "lyra-n16-open-crash";
      protocol = "lyra";
      n = 16;
      load = Harness.Scenario.Open_rate 200.;
      window_us = 3_000_000;
      limit_us = 2_000_000;
      crash = Some { node = 1; down = (0.2, 0.45); lossy = (0.1, 0.5) };
      cases = 1;
      why =
        "Lyra below saturation on an open loop with a crash, loss and \
         duplication: large batches plus the sync-pull and retransmission \
         recovery path";
    };
    {
      name = "pompe-n100-closed";
      protocol = "pompe";
      n = 100;
      load = Harness.Scenario.Closed 2;
      window_us = 120_000_000;
      limit_us = 30_000_000;
      crash = None;
      cases = 4;
      why =
        "The paper's Pompe baseline at n=100 with cheap handlers, so engine, \
         network modelling and post-run scoring dominate and no Lyra code runs";
    };
    {
      name = "dag-n61-closed";
      protocol = "dag";
      n = 61;
      load = Harness.Scenario.Closed 2;
      window_us = 6_000_000;
      limit_us = 2_000_000;
      crash = None;
      cases = 3;
      why =
        "The only workload for the DAG orderer; its heap grows with simulated \
         time, so state bounds and GC show on peak heap";
    };
  ]

(* Cases in an untraced run of [seconds]: at least one, and a pure
   function of the arguments, so a seed always runs the same cases. *)
let case_count w ~seconds = max 1 (w.cases * seconds / 20)

let find name = List.find_opt (fun w -> String.equal w.name name) all

let protocol w =
  match Protocol.Registry.get w.protocol with
  | Some p -> p
  | None -> invalid_arg ("perfbench: protocol not registered: " ^ w.protocol)
