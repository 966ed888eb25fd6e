(* A transparent wrapper around a protocol's first-class [Protocol.NODE]
   module. Every call is forwarded unchanged; the wrapper only reads the
   host clock and public counters around the harness's own calls into
   the protocol. It schedules no engine event and draws no randomness,
   so a wrapped run is bit-identical to a plain one (the self-tests pin
   this for every registered protocol).

   Window boundaries come from the harness's call pattern: the first
   [stats] call is the warm-up snapshot that opens the measurement
   window, and the first [output_log] after it is the post-run scoring
   that follows the window's close. *)

type counters = {
  host_s : float;
  sim_us : int;
  events : int;
  by_kind : (string * int) list;
  messages : int;
  bytes : int;
  dropped : int;
  dup : int;
  cpu_busy_us : int array;
  nic_busy_us : int array;
  gc : Gc.stat;
  speed : Speed.mark;
}

type t = {
  ledger : Ledger.t;
  mutable tick : unit -> unit;
      (** runs on every forwarded submit, observation and output;
          traced runs poll the runtime-events ring here *)
  mutable boundary : unit -> unit;  (** runs before each window snapshot *)
  mutable entered_s : float;
  mutable started_s : float option;
  mutable opened : counters option;
  mutable closed : counters option;
  mutable read : unit -> counters;
  mutable logs : unit -> Protocol.committed list array;
      (** every node's output log, by node id *)
  mutable outputs : int list array;
      (** per node id, simulated output time of each committed batch,
          newest first *)
}

(* Host seconds, less the speed probe's own time. *)
let clock = Speed.clock

let create () =
  {
    ledger = Ledger.create ();
    tick = ignore;
    boundary = ignore;
    entered_s = nan;
    started_s = None;
    opened = None;
    closed = None;
    read = (fun () -> invalid_arg "Shim: no network built yet");
    logs = (fun () -> [||]);
    outputs = [||];
  }

(* Each window boundary also times the speed kernel, so that the set-up
   and the window both hold samples of their own. *)
let snapshot pr =
  pr.boundary ();
  Speed.sample ();
  pr.read ()

let wrap pr (module P : Protocol.NODE) : (module Protocol.NODE) =
  (module struct
    let name = P.name

    let default_warmup_us = P.default_warmup_us

    type net = P.net

    type t = { inner : P.t; id : int }

    let engine = ref None

    let nodes = ref [||]

    let now_us () = Sim.Engine.now (Option.get !engine)

    let make_net eng ~n ~jitter ?ns_per_byte ?faults ?adversary ?perturb
        ?trace ?dissemination () =
      engine := Some eng;
      let net =
        P.make_net eng ~n ~jitter ?ns_per_byte ?faults ?adversary ?perturb
          ?trace ?dissemination ()
      in
      nodes := Array.make n None;
      pr.outputs <- Array.make n [];
      pr.read <-
        (fun () ->
          let host_s = clock () in
          {
            host_s;
            sim_us = Sim.Engine.now eng;
            events = Sim.Engine.events_executed eng;
            by_kind = Sim.Engine.executed_by_kind eng;
            messages = P.net_messages net;
            bytes = P.net_bytes net;
            dropped = P.net_dropped net;
            dup = P.net_dup net;
            cpu_busy_us = Array.init n (fun i -> Sim.Cpu.busy_us (P.net_cpu net i));
            nic_busy_us = Array.init n (fun i -> Sim.Cpu.busy_us (P.net_nic net i));
            gc = Gc.quick_stat ();
            speed = Speed.mark ();
          });
      pr.logs <-
        (fun () ->
          Array.map
            (function Some nd -> P.output_log nd.inner | None -> [])
            !nodes);
      net

    let tx_size = P.tx_size

    let net_messages = P.net_messages

    let net_bytes = P.net_bytes

    let net_dropped = P.net_dropped

    let net_dup = P.net_dup

    let net_cpu = P.net_cpu

    let net_nic = P.net_nic

    let create net ~id ?on_observe ~on_output () =
      let on_output (c : Protocol.committed) =
        let at_us = now_us () in
        pr.outputs.(id) <- at_us :: pr.outputs.(id);
        Array.iter
          (fun (tx : Lyra.Types.tx) ->
            if Int.equal tx.origin id then
              Ledger.commit pr.ledger ~tx_id:tx.tx_id ~at_us)
          c.txs;
        pr.tick ();
        on_output c
      in
      (* Observations are frequent during warm-up, before any client
         submits; ticking there keeps traced runs' ring drained. *)
      let on_observe =
        Option.map
          (fun f b ->
            pr.tick ();
            f b)
          on_observe
      in
      let node = { inner = P.create net ~id ?on_observe ~on_output (); id } in
      !nodes.(id) <- Some node;
      node

    let start node =
      if Option.is_none pr.started_s then pr.started_s <- Some (clock ());
      P.start node.inner

    let submit node ~payload =
      let tx_id = P.submit node.inner ~payload in
      Ledger.submit pr.ledger ~tx_id ~at_us:(now_us ());
      pr.tick ();
      tx_id

    let honest node = P.honest node.inner

    let output_log node =
      if Option.is_some pr.opened && Option.is_none pr.closed then
        pr.closed <- Some (snapshot pr);
      P.output_log node.inner

    let seq_bounds node = P.seq_bounds node.inner

    let stats node =
      if Option.is_none pr.opened then pr.opened <- Some (snapshot pr);
      P.stats node.inner
  end)
