module type CODEC = sig
  type msg

  type config

  val config : n:int -> config

  val tx_size : config -> int

  val cost : Sim.Costs.t -> n:int -> msg -> int

  val size : msg -> int

  val regions : Sim.Regions.t array option
end

module Make (C : CODEC) = struct
  type net = {
    net : C.msg Sim.Network.t;
    cfg : C.config;
    faults : Sim.Faults.plan;
  }

  let make_net engine ~n ~jitter ?ns_per_byte ?(faults = Sim.Faults.none)
      ?adversary ?perturb ?trace ?dissemination () =
    let cfg = C.config ~n in
    let regions =
      match C.regions with
      | Some r -> r
      | None -> Sim.Regions.paper_placement n
    in
    let latency = Sim.Latency.regional ~jitter regions in
    let costs = Sim.Costs.default in
    let net =
      Sim.Network.create engine ~n ~latency ?ns_per_byte ~faults ?adversary
        ?perturb ?trace ?dissemination
        ~cost:(fun ~dst:_ m -> C.cost costs ~n m)
        ~size:C.size ()
    in
    { net; cfg; faults }

  let tx_size nt = C.tx_size nt.cfg

  let net_messages nt = Sim.Network.messages_sent nt.net

  let net_bytes nt = Sim.Network.bytes_sent nt.net

  let net_dropped nt = Sim.Network.messages_dropped nt.net

  let net_dup nt = Sim.Network.messages_duplicated nt.net

  let net_cpu nt id = Sim.Network.cpu nt.net id

  let net_nic nt id = Sim.Network.nic nt.net id
end

let phases p =
  List.map
    (fun (label, r) -> (label, Metrics.Recorder.to_array r))
    (Metrics.Phases.pairs p)
