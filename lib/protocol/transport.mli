(** The transport every adapter shares: an adapter supplies its
    configuration and message codec, and {!Make} builds the
    {!Sim.Network} on the regional latency model and supplies the
    network half of {!Node_intf.NODE} ([make_net], [tx_size] and the
    six [net_*] accessors). *)

module type CODEC = sig
  type msg

  type config

  (** The resolved configuration for an [n]-node cluster. *)
  val config : n:int -> config

  val tx_size : config -> int

  (** Receiver CPU cost (µs) of one message. *)
  val cost : Sim.Costs.t -> n:int -> msg -> int

  (** Wire size (bytes) of one message. *)
  val size : msg -> int

  (** Node placement; [None] is {!Sim.Regions.paper_placement}. *)
  val regions : Sim.Regions.t array option
end

module Make (C : CODEC) : sig
  type net = {
    net : C.msg Sim.Network.t;
    cfg : C.config;
    faults : Sim.Faults.plan;
        (** the executed plan, for adapters that apply its clock skews *)
  }

  val make_net :
    Sim.Engine.t ->
    n:int ->
    jitter:float ->
    ?ns_per_byte:int ->
    ?faults:Sim.Faults.plan ->
    ?adversary:Sim.Adversary.t ->
    ?perturb:Sim.Perturb.t ->
    ?trace:Sim.Trace.t ->
    ?dissemination:Sim.Network.dissemination ->
    unit ->
    net

  val tx_size : net -> int

  val net_messages : net -> int

  val net_bytes : net -> int

  val net_dropped : net -> int

  val net_dup : net -> int

  val net_cpu : net -> int -> Sim.Cpu.t

  val net_nic : net -> int -> Sim.Cpu.t
end

(** A node's phase recorders as {!Node_intf.stats} [phases] arrays. *)
val phases : Metrics.Phases.t -> (string * float array) list
