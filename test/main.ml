let () =
  Alcotest.run "pinpoint"
    [
      ("util", Test_util.suite);
      ("smt", Test_smt.suite);
      ("frontend", Test_frontend.suite);
      ("ir", Test_ir.suite);
      ("pta", Test_pta.suite);
      ("transform", Test_transform.suite);
      ("seg", Test_seg.suite);
      ("summary", Test_summary.suite);
      ("engine", Test_engine.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("interp", Test_interp.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("vcall", Test_vcall.suite);
      ("corpus", Test_corpus.suite);
      ("pathcond", Test_pathcond.suite);
      ("leak", Test_leak.suite);
      ("resilience", Test_resilience.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("server", Test_server.suite);
    ]
