(* Aggregate test runner: each [Test_*] module exports its suites. *)

let () =
  Alcotest.run "lvm"
    (Test_machine.suites @ Test_vm.suites @ Test_sim.suites @ Test_rvm.suites
   @ Test_tools.suites @ Test_experiments.suites @ Test_extensions.suites @ Test_edge.suites @ Test_api.suites @ Test_paging.suites @ Test_validation.suites @ Test_obs.suites @ Test_fault.suites @ Test_repl.suites @ Test_store.suites @ Test_fams.suites @ Test_determinism.suites @ Test_golden.suites @ Test_prop.suites @ Test_logdiet.suites @ Test_mvcc.suites
   @ Test_soak.suites)
