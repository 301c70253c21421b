let () =
  Alcotest.run "iron"
    (Test_util.suites @ Test_obs.suites @ Test_pool.suites @ Test_disk.suites
    @ Test_image.suites @ Test_bigstore.suites
    @ Test_fault.suites
    @ Test_vfs.suites
    @ Test_codecs.suites @ Test_jrnl.suites @ Test_ext3.suites
    @ Test_genops.suites
    @ Test_reiserfs.suites @ Test_jfs.suites @ Test_ntfs.suites
    @ Test_ixt3.suites @ Test_fsck.suites @ Test_crash.suites
    @ Test_explore.suites @ Test_enumerate.suites @ Test_fuzz.suites @ Test_core.suites
    @ Test_report.suites @ Test_traffic.suites
    @ Test_workloads.suites @ Test_differential.suites @ Test_fidelity.suites)
