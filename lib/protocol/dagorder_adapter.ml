let make ?(tweak = fun c -> c) ?(censor = fun _ _ -> false) ?regions
    ?(clock_offsets = true) () : (module Node_intf.NODE) =
  (module struct
    let name = "dag"

    (* Leaderless: only the round pipeline needs to fill. *)
    let default_warmup_us = 500_000

    include Transport.Make (struct
      type msg = Dagorder.Node.msg

      type config = Dagorder.Node.config

      let config ~n = tweak (Dagorder.Node.default_config ~n)

      let tx_size c = c.Dagorder.Node.tx_size

      let cost costs ~n:_ m = Dagorder.Node.msg_cost costs m

      let size = Dagorder.Node.msg_size

      let regions = regions
    end)

    type t = Dagorder.Node.t

    let convert (o : Dagorder.Node.output) =
      {
        Node_intf.key =
          Node_intf.key_of_iid o.delivery.Dagorder.Dag.batch.Lyra.Types.iid;
        txs = o.delivery.Dagorder.Dag.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      (* Plan skew stacks on the sampled offset; both act only on the
         receive-report clock the linearizer takes medians over. *)
      let skew = Sim.Faults.skew_us nt.faults id in
      let clock_offset_us =
        if clock_offsets then
          let rng = Sim.Engine.rng (Sim.Network.engine nt.net) in
          skew
          + Crypto.Rng.int rng (1 + nt.cfg.Dagorder.Node.clock_offset_max_us)
        else skew
      in
      Dagorder.Node.create nt.cfg nt.net ~id ~clock_offset_us ?on_observe
        ~on_output:(fun o -> on_output (convert o))
        ~censor:(censor id) ()

    let start = Dagorder.Node.start

    let submit = Dagorder.Node.submit

    let honest _ = true

    let output_log t = List.map convert (Dagorder.Node.output_log t)

    (* Wave numbers carry no validity window. *)
    let seq_bounds _ = []

    let stats t =
      {
        Node_intf.accepted = Dagorder.Node.own_emitted t;
        rejected = 0;
        decide_rounds =
          Metrics.Recorder.to_array (Dagorder.Node.decide_rounds t);
        mempool = Dagorder.Node.mempool_size t;
        committed_seq = Dagorder.Node.committed_seq t;
        late_accepts = 0;
        phases = Transport.phases (Dagorder.Node.phases t);
      }
  end)
