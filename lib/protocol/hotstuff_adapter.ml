let make ?(tweak = fun c -> c) ?(censor = fun _ _ -> false) ?regions () :
    (module Node_intf.NODE) =
  (module struct
    let name = "hotstuff"

    let default_warmup_us = 500_000

    (* HotStuff has no local-clock component, so plan skews have nothing
       to act on here; the transport still executes the rest of the
       plan. *)
    include Transport.Make (struct
      type msg = Hotstuff.Smr.msg

      type config = Hotstuff.Smr.config

      let config ~n = tweak (Hotstuff.Smr.default_config ~n)

      let tx_size c = c.Hotstuff.Smr.tx_size

      let cost costs ~n:_ m = Hotstuff.Smr.msg_cost costs m

      let size = Hotstuff.Smr.msg_size

      let regions = regions
    end)

    type t = Hotstuff.Smr.t

    let convert (o : Hotstuff.Smr.output) =
      {
        Node_intf.key = Node_intf.key_of_iid o.batch.Lyra.Types.iid;
        txs = o.batch.Lyra.Types.txs;
        seq = o.seq;
        output_at = o.output_at;
      }

    let create nt ~id ?on_observe ~on_output () =
      Hotstuff.Smr.create nt.cfg nt.net ~id ?on_observe
        ~on_output:(fun o -> on_output (convert o))
        ~censor:(censor id) ()

    let start = Hotstuff.Smr.start

    let submit = Hotstuff.Smr.submit

    let honest _ = true

    let output_log t = List.map convert (Hotstuff.Smr.output_log t)

    (* Heights carry no validity window. *)
    let seq_bounds _ = []

    let stats t =
      {
        Node_intf.accepted = Hotstuff.Smr.own_committed t;
        rejected = 0;
        decide_rounds = [||];
        mempool = Hotstuff.Smr.mempool_size t;
        committed_seq = Hotstuff.Smr.committed_height t;
        late_accepts = 0;
        phases = Transport.phases (Hotstuff.Smr.phases t);
      }
  end)
