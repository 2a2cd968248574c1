let blob ?label collector =
  Output_stream.Envelope.render ~kind:"metrics"
    [ ( "metrics",
        Output_stream.Envelope.Raw
          (Lvm_obs.Sink.blob_json ?label
             ~histograms:(Lvm_obs.Collector.histograms collector)
             (Lvm_obs.Collector.snapshot collector)) ) ]

let emit ?label ~format ppf collector =
  match format with
  | None -> ()
  | Some Lvm_obs.Sink.Json -> Format.fprintf ppf "%s@." (blob ?label collector)
  | Some fmt ->
    Lvm_obs.Sink.emit ?label
      ~histograms:(Lvm_obs.Collector.histograms collector)
      fmt ppf
      (Lvm_obs.Collector.snapshot collector)

let with_ambient ?label ~format ppf f =
  let result, collector = Lvm_obs.Collector.with_collector f in
  emit ?label ~format ppf collector;
  result
